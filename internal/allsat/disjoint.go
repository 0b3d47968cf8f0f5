package allsat

import (
	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	rt "allsatpre/internal/runtime"
	"allsatpre/internal/sat"
	"allsatpre/internal/simplify"
)

// DisjointIterator streams the pairwise-disjoint solution cubes of the
// blocking-clause-free engine (sat.ChronoEnum): chronological
// backtracking advances enumeration by flipping decisions in place, so
// the clause database never grows with the number of solutions, and a
// cube is emitted as soon as every clause is satisfied, with the
// projection variables not yet decided free in it. It mirrors
// the Iterator surface, so the same drivers (sequential loop, parallel
// workers) run either engine.
type DisjointIterator struct {
	s        *sat.Solver
	rt       *rt.Runtime // pool the solver returns to on Close (may be nil)
	ch       *sat.ChronoEnum
	space    *cube.Space
	maxCubes uint64 // Budget.MaxCubes: Next stops after this many cubes
	done     bool
	reason   budget.Reason
	stats    Stats
}

// NewDisjointIterator prepares a disjoint enumeration of the solutions of
// f projected onto space. An Options.Budget bounds the whole iteration;
// when it trips — its MaxCubes included — Next returns false and Reason
// reports the limit. Unless opts.Simplify is Off, f is preprocessed
// first (on a clone); cubes stay pairwise disjoint and their union is
// unchanged — simplification preserves the projected solution set, and
// unit clauses pinning subcube prefixes are frozen (projection vars), so
// they survive the pass.
func NewDisjointIterator(f *cnf.Formula, space *cube.Space, opts Options) *DisjointIterator {
	var sstats simplify.Stats
	f, sstats = maybeSimplify(f, space, &opts)
	s := acquireLoaded(f, opts.Budget, opts.Runtime)
	it := &DisjointIterator{
		s:        s,
		rt:       opts.Runtime,
		ch:       sat.NewChronoEnum(s, space.Vars()),
		space:    space,
		maxCubes: opts.Budget.MaxCubes,
	}
	it.stats.Simplify = sstats
	return it
}

// Next returns the next solution cube, or ok=false when the enumeration
// is exhausted or a budget tripped. Returned cubes are pairwise disjoint;
// their union converges to the exact projection.
func (it *DisjointIterator) Next() (cube.Cube, bool) {
	if it.done {
		return nil, false
	}
	switch it.ch.Next() {
	case sat.Sat:
		if capReached(it.maxCubes, it.stats.Cubes, &it.reason) {
			break
		}
		c := it.space.FullCube()
		for _, l := range it.ch.Cube() {
			c[it.ch.ProjPos(l.Var())] = lit.TernOf(!l.Sign())
		}
		it.stats.Solutions++
		it.stats.Cubes++
		it.stats.LiftedFree += uint64(c.FreeVars())
		return c, true
	case sat.Unknown:
		it.reason = it.ch.StopReason()
	}
	it.done = true
	captureSolverStats(&it.stats, it.s)
	return nil, false
}

// Reason reports why the iteration stopped before exhausting the solution
// set (budget.None when it ran to completion or is still running).
func (it *DisjointIterator) Reason() budget.Reason { return it.reason }

// Stats returns the counters accumulated so far. BlockingClauses is zero
// by construction — the engine's defining property.
func (it *DisjointIterator) Stats() Stats {
	captureSolverStats(&it.stats, it.s)
	return it.stats
}

// Close ends the iteration and releases the solver back to the runtime
// pool (a no-op without one). The ChronoEnum wrapped around the solver
// is dropped with it — a Reset solver must never be driven by a stale
// enumerator. Idempotent; Stats stays valid.
func (it *DisjointIterator) Close() {
	if it.s == nil {
		return
	}
	captureSolverStats(&it.stats, it.s)
	it.done = true
	s := it.s
	it.s = nil
	it.ch = nil
	it.rt.P().ReleaseSolver(s)
}
