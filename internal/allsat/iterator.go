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

// Iterator enumerates projected solutions one cube at a time, so callers
// can stop early (first witness, bounded sampling, streaming consumers)
// without an up-front cube cap. It drives the blocking loop — optionally
// with lifting — underneath.
type Iterator struct {
	s        *sat.Solver
	rt       *rt.Runtime // pool the solver returns to on Close (may be nil)
	space    *cube.Space
	lifter   *modelLifter
	modelBuf []bool // reused across Next calls via ModelBuf
	maxCubes uint64 // Budget.MaxCubes: Next stops after this many cubes
	done     bool
	reason   budget.Reason // why enumeration stopped early, None if exhausted
	stats    Stats
}

// NewIterator prepares an iterator over the solutions of f projected onto
// space. With lift, each returned cube is greedily enlarged first. An
// Options.Budget bounds the whole iteration; when it trips — its
// MaxCubes included — Next returns false and Reason reports the limit.
// Unless opts.Simplify is Off, f is preprocessed first (on a clone; the
// caller's formula is untouched) — the stream denotes the same solution
// set either way.
func NewIterator(f *cnf.Formula, space *cube.Space, opts Options, lift bool) *Iterator {
	var sstats simplify.Stats
	f, sstats = maybeSimplify(f, space, &opts)
	it := &Iterator{
		s:        acquireLoaded(f, opts.Budget, opts.Runtime),
		rt:       opts.Runtime,
		space:    space,
		maxCubes: opts.Budget.MaxCubes,
	}
	it.stats.Simplify = sstats
	if lift {
		// Lift against the simplified formula: a cube all of whose
		// completions satisfy the simplified formula denotes completions
		// inside its projection, which equals the original's projection.
		it.lifter = newModelLifter(f, space)
	}
	return it
}

// Next returns the next solution cube, or ok=false when the enumeration
// is exhausted. Cubes may overlap when lifting; their union converges to
// the exact projection.
func (it *Iterator) Next() (cube.Cube, bool) {
	if it.done {
		return nil, false
	}
	st := it.s.Solve()
	if st != sat.Sat || capReached(it.maxCubes, it.stats.Cubes, &it.reason) {
		it.done = true
		if st == sat.Unknown {
			it.reason = it.s.StopReason()
		}
		captureSolverStats(&it.stats, it.s)
		return nil, false
	}
	it.stats.Solutions++
	it.modelBuf = it.s.ModelBuf(it.modelBuf)
	model := it.modelBuf
	var c cube.Cube
	if it.lifter != nil {
		c = it.lifter.lift(model)
		it.stats.LiftedFree += uint64(c.FreeVars())
	} else {
		c = it.space.FromModel(model)
	}
	it.stats.Cubes++

	var blocking []lit.Lit
	for pos, t := range c {
		if t == lit.Unknown {
			continue
		}
		blocking = append(blocking, lit.New(it.space.Vars()[pos], t == lit.True))
	}
	it.stats.BlockingClauses++
	it.stats.BlockingLits += uint64(len(blocking))
	if len(blocking) == 0 || !it.s.AddClause(blocking...) {
		it.done = true
		captureSolverStats(&it.stats, it.s)
	}
	return c, true
}

// Reason reports why the iteration stopped before exhausting the solution
// set (budget.None when it ran to completion or is still running). A
// non-None reason means the cubes seen so far are a subset of the
// projection, not all of it.
func (it *Iterator) Reason() budget.Reason { return it.reason }

// Stats returns the counters accumulated so far.
func (it *Iterator) Stats() Stats {
	captureSolverStats(&it.stats, it.s)
	return it.stats
}

// Close ends the iteration and releases the solver back to the runtime
// pool (a no-op without one). Idempotent; Next returns false afterwards
// and Stats stays valid.
func (it *Iterator) Close() {
	if it.s == nil {
		return
	}
	captureSolverStats(&it.stats, it.s)
	it.done = true
	s := it.s
	it.s = nil
	it.rt.P().ReleaseSolver(s)
}

// captureSolverStats copies the solver's search counters into st. A nil
// solver (the iterator was closed) leaves st as it was captured last.
func captureSolverStats(st *Stats, s *sat.Solver) {
	if s == nil {
		return
	}
	ss := s.Stats()
	st.Decisions = ss.Decisions
	st.Propagations = ss.Propagations
	st.Conflicts = ss.Conflicts
	st.PeakLearnts = uint64(ss.PeakLearnts)
	st.PeakLearntBytes = ss.PeakLearntBytes
	st.ArenaBytes = ss.ArenaBytes
	st.LearntsCore = uint64(ss.LearntsCore)
	st.LearntsTier2 = uint64(ss.LearntsTier2)
	st.LearntsLocal = uint64(ss.LearntsLocal)
}
