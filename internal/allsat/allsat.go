// Package allsat provides all-solutions SAT enumeration with projection:
// given a CNF formula and a set of projection variables, it computes the
// set of projected assignments extendable to a model, as a cube cover.
//
// Three engines live here:
//
//   - EnumerateBlocking — the classical all-SAT loop: solve, project the
//     model, add a blocking clause over every projection variable, repeat.
//   - EnumerateLifting — the same loop, but each model is first lifted
//     (greedily minimized into a short cube whose every completion still
//     satisfies the formula), so one blocking clause removes 2^k
//     projections at once.
//   - EnumerateDisjoint — blocking-clause-free enumeration by
//     chronological backtracking with early emission (sat.ChronoEnum):
//     pairwise-disjoint cubes and O(1) clause-database growth — one
//     in-place flip per region instead of one blocking clause per cube.
//
// The paper's contribution — the success-driven enumerator that stores
// solutions directly as an ROBDD and memoizes completed subproblems — is
// implemented in internal/core and shares this package's Result type.
package allsat

import (
	"math/big"

	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	rt "allsatpre/internal/runtime"
	"allsatpre/internal/sat"
	"allsatpre/internal/simplify"
)

// Stats aggregates enumeration counters.
type Stats struct {
	// Solutions is the number of satisfying assignments the underlying
	// solver produced (one per iteration for the blocking engines; the
	// number of 1-leaves reached for the success-driven engine).
	Solutions uint64
	// Cubes is the number of cubes emitted into the cover.
	Cubes uint64
	// BlockingClauses / BlockingLits measure added blocking clauses.
	BlockingClauses, BlockingLits uint64
	// LiftedFree is the total count of projection variables freed by
	// lifting (or by early cutoff in the success-driven engine, or by
	// early emission in the disjoint engine).
	LiftedFree uint64
	// PeakLearnts is the high-water count of learnt clauses held by the
	// underlying CDCL solver (summed across parallel workers, which run
	// concurrently). Together with BlockingClauses it measures clause-
	// database growth: the disjoint engine keeps BlockingClauses at zero
	// by construction.
	PeakLearnts uint64
	// PeakLearntBytes is the high-water arena footprint of live learnt
	// clauses in bytes (summed across workers). With the tiered learnt
	// database, clause counts are incomparable across engines (core
	// clauses are permanent, locals churn), so the byte watermark is the
	// apples-to-apples memory measure alongside PeakLearnts.
	PeakLearntBytes uint64
	// ArenaBytes is the clause-arena footprint at capture time (summed
	// across workers); LearntsCore/Tier2/Local are the live per-tier
	// learnt counts at the same instant.
	ArenaBytes                              uint64
	LearntsCore, LearntsTier2, LearntsLocal uint64
	// Decisions/Propagations/Conflicts come from the underlying search.
	Decisions, Propagations, Conflicts uint64
	// CacheLookups/CacheHits/CacheClears count success-driven memo
	// activity; a clear is a wholesale memo reset at the memo bound.
	CacheLookups, CacheHits, CacheClears uint64
	// BDDNodes is the node count of the solution BDD (success-driven) or
	// of the counting BDD (lifting engine). It is 0 for the blocking and
	// disjoint engines, which count their pairwise-disjoint cubes by
	// summation and build no BDD.
	BDDNodes int
	// Kernel snapshots the BDD manager's unique-table and apply-cache
	// gauges for the run (merged across managers when several are used;
	// zero for the blocking and disjoint engines).
	Kernel bdd.KernelStats
	// Simplify reports the preprocessing pass (Simplify.Applied is false
	// when simplification was disabled for the run).
	Simplify simplify.Stats
}

// Add sums the monotone search counters of s, Solutions through
// CacheClears, into st. The gauges (learnt and arena watermarks,
// BDDNodes, Kernel, Simplify) are the caller's to combine.
func (st *Stats) Add(s Stats) {
	st.Solutions += s.Solutions
	st.Cubes += s.Cubes
	st.BlockingClauses += s.BlockingClauses
	st.BlockingLits += s.BlockingLits
	st.LiftedFree += s.LiftedFree
	st.Decisions += s.Decisions
	st.Propagations += s.Propagations
	st.Conflicts += s.Conflicts
	st.CacheLookups += s.CacheLookups
	st.CacheHits += s.CacheHits
	st.CacheClears += s.CacheClears
}

// Result is the outcome of an enumeration.
type Result struct {
	// Space is the projection space (one position per projection var).
	Space *cube.Space
	// Cover is the set of projected solutions as cubes. Cubes may overlap
	// (for the lifting engine; the disjoint engine's are pairwise
	// disjoint); their union is exactly the projection.
	Cover *cube.Cover
	// Count is the exact number of projected minterms.
	Count *big.Int
	// Aborted is true when a Budget limit (the cube cap, the solver's
	// conflict cap, a deadline) stopped enumeration early; Cover is
	// then a subset of the projection — a sound under-approximation, never
	// garbage. Reason says which limit tripped.
	Aborted bool
	Reason  budget.Reason
	// Stats holds the search counters.
	Stats Stats
}

// Options tunes the enumeration engines.
type Options struct {
	// Budget imposes wall-clock/cancellation/conflict/cube limits across
	// the whole enumeration loop; the CDCL solvers run with
	// sat.DefaultOptions under it. The zero Budget is unbounded.
	// Budget.MaxCubes is exact for every worker count: a parallel run's
	// merged cover contains exactly min(MaxCubes, |full cover|) cubes —
	// workers claim cap slots atomically, so the cap is never overshot —
	// and the run reports budget.Cubes only when the full cover is larger.
	Budget budget.Budget
	// Workers > 1 fans the enumeration out over guiding-path subcubes of
	// the projection space, one fresh solver per subcube (see parallel.go).
	// The merged cover denotes the same solution set as the sequential
	// run for every worker count. 0 or 1 enumerates sequentially.
	Workers int
	// Simplify controls projection-safe CNF preprocessing ahead of
	// enumeration (internal/simplify): bounded elimination of auxiliary
	// variables, subsumption, self-subsuming resolution, and top-level
	// failed-literal probing, with the projection variables never
	// eliminated — so the enumerated cover is identical with or
	// without it. Auto resolves to on for the Enumerate* entry points and
	// the public iterators; pass Off when the input clause indices must
	// stay stable (e.g. proof logging).
	Simplify simplify.Mode
	// Runtime, when non-nil, attaches the pooled execution substrate:
	// solvers and BDD managers come warm from Runtime.Pool (Reset instead
	// of reconstructed — bit-identical results, pinned by the preimage
	// oracle), and parallel subcube jobs run on Runtime.Sched's
	// shared fair-share executors. Nil (or a nil Sched) means a private
	// scheduler with Workers executors for the call; nil Pool means fresh
	// construction.
	Runtime *rt.Runtime
}

// maybeSimplify preprocesses f (on a clone — the caller's formula is
// never mutated) when opts.Simplify resolves to enabled, freezing the
// projection variables. It flips opts.Simplify to Off so inner layers
// (parallel fallback, per-worker iterators) never re-run the pass on the
// already-simplified formula.
func maybeSimplify(f *cnf.Formula, space *cube.Space, opts *Options) (*cnf.Formula, simplify.Stats) {
	if !opts.Simplify.Enabled() {
		return f, simplify.Stats{}
	}
	opts.Simplify = simplify.Off
	sf := f.Clone()
	return sf, simplify.RunFrozen(sf, space.Vars()).Stats
}

// countCover sets res.Count to the exact minterm count of res.Cover.
// The blocking and disjoint engines' cubes are pairwise disjoint — each
// blocking clause negates exactly the cube just emitted, the disjoint
// engine's regions never overlap, guiding-path subcubes pin disjoint
// prefixes, and an aborted run's cover is a subset — so their count is
// a plain sum of cube sizes and no BDD is built (BDDNodes and Kernel
// stay zero). The lifting engine's cubes overlap and are counted
// through a BDD over the projection space, whose manager comes from
// (and returns to) the warm pool when one is attached; node counts and
// the count itself are identical either way — canonicity does not
// depend on table capacity.
func countCover(res *Result, eng Engine, p *rt.Pool) {
	if eng != Lifting {
		res.Count = res.Cover.DisjointCount()
		return
	}
	m := p.AcquireManager(res.Space.Vars(), 0)
	res.Count = m.SatCount(m.FromCover(res.Cover))
	res.Stats.BDDNodes = m.NumNodes()
	res.Stats.Kernel.Merge(m.Kernel())
	p.ReleaseManager(m)
}

// acquireLoaded obtains an iterator's solver — warm from the runtime
// pool when one is attached, fresh otherwise — and bulk-loads f into it.
func acquireLoaded(f *cnf.Formula, bud budget.Budget, r *rt.Runtime) *sat.Solver {
	s := r.P().AcquireSolver(sat.Options{Budget: bud.Materialize()}, uint64(f.NumVars)*64)
	s.LoadFormula(f)
	return s
}

// Engine selects one of the package's three cube-streaming engines.
type Engine int

// The engines, in the order the package doc lists them.
const (
	Blocking Engine = iota
	Lifting
	Disjoint
)

// CubeIterator is the streaming surface shared by the per-engine
// iterators: the sequential loop, the parallel jobs and the streaming
// consumers (the server, preimage's state projection) drive it.
type CubeIterator interface {
	Next() (cube.Cube, bool)
	Reason() budget.Reason
	Stats() Stats
	// Close releases pooled resources (the solver) back to the runtime
	// pool; the iterator is spent afterwards. Idempotent, nil-pool-safe.
	Close()
}

// capReached reports whether an iterator that has emitted n cubes and
// just found one more is at its cube cap (0 = none), and if so records
// budget.Cubes as the stop reason. The iterators ask for the next
// solution before they check the cap, so a run whose cap equals its
// exact cube count ends complete: the cap cut it only if another cube
// exists. The solution found past the cap is neither emitted nor
// counted.
func capReached(maxCubes, n uint64, reason *budget.Reason) bool {
	if maxCubes == 0 || n < maxCubes {
		return false
	}
	*reason = budget.Cubes
	return true
}

// NewEngineIterator returns the engine's cube stream over the solutions
// of f projected onto space: the sequential iterator (NewIterator,
// NewDisjointIterator) for opts.Workers <= 1, the parallel one
// (NewParallelIterator, or its disjoint counterpart) otherwise. Callers
// must drain or Close it.
func NewEngineIterator(f *cnf.Formula, space *cube.Space, opts Options, eng Engine) CubeIterator {
	switch {
	case opts.Workers > 1:
		return newParallelIterator(f, space, opts, eng)
	case eng == Disjoint:
		return NewDisjointIterator(f, space, opts)
	default:
		return NewIterator(f, space, opts, eng == Lifting)
	}
}

// EnumerateBlocking runs the classical blocking-clause all-SAT loop,
// projecting onto the variables of space.
func EnumerateBlocking(f *cnf.Formula, space *cube.Space, opts Options) *Result {
	return enumerate(f, space, opts, Blocking)
}

// EnumerateLifting runs the blocking-clause loop with greedy cube lifting:
// each model is minimized into a cube over the projection variables before
// being blocked.
func EnumerateLifting(f *cnf.Formula, space *cube.Space, opts Options) *Result {
	return enumerate(f, space, opts, Lifting)
}

// EnumerateDisjoint runs the blocking-clause-free engine: chronological
// backtracking with early emission yields pairwise-disjoint cubes
// whose union is the exact projection, while the clause database stays
// O(1) in the number of solutions (Stats.BlockingClauses is always zero).
func EnumerateDisjoint(f *cnf.Formula, space *cube.Space, opts Options) *Result {
	return enumerate(f, space, opts, Disjoint)
}

// enumerate drains the engine's iterator into a cover and counts it. The
// iterator enforces the whole budget: it shares it with the solver, so a
// deadline or cancellation interrupts a long solver call, and it stops
// at the cube cap. A parallel stream is put back into subcube order, so
// the cover is deterministic for a fixed worker count.
func enumerate(f *cnf.Formula, space *cube.Space, opts Options, eng Engine) *Result {
	f, sstats := maybeSimplify(f, space, &opts)
	var cubes []cube.Cube
	it := NewEngineIterator(f, space, opts, eng)
	for {
		c, ok := it.Next()
		if !ok {
			break
		}
		cubes = append(cubes, c)
	}
	SortBySubcube(cubes, space, opts.Workers)
	res := &Result{Space: space, Cover: cube.NewCover(space)}
	for _, c := range cubes {
		res.Cover.Add(c)
	}
	if r := it.Reason(); r != budget.None {
		// Budget exhausted; the cover so far is a sound
		// under-approximation.
		res.Aborted = true
		res.Reason = r
	}
	res.Stats = it.Stats()
	it.Close()
	countCover(res, eng, opts.Runtime.P())
	res.Stats.Simplify = sstats
	return res
}

// modelLifter greedily minimizes models into cubes. It indexes, for every
// projection variable, the clauses in which each of its phases occurs, and
// maintains per-clause counts of currently-satisfying literals.
type modelLifter struct {
	f     *cnf.Formula
	space *cube.Space
	// occ[l] lists clause indexes containing literal l.
	occ [][]int
	// satCnt[i] is the number of true literals of clause i under the
	// current (partial) assignment; scratch, rebuilt per model.
	satCnt []int
}

func newModelLifter(f *cnf.Formula, space *cube.Space) *modelLifter {
	ml := &modelLifter{
		f:      f,
		space:  space,
		occ:    make([][]int, 2*f.NumVars),
		satCnt: make([]int, len(f.Clauses)),
	}
	for ci, c := range f.Clauses {
		for _, l := range c {
			ml.occ[l] = append(ml.occ[l], ci)
		}
	}
	return ml
}

// lift returns a cube over the projection space, containing the model's
// projection, all of whose completions satisfy every clause of f.
func (ml *modelLifter) lift(model []bool) cube.Cube {
	// Count satisfying literals per clause under the full model.
	for i, c := range ml.f.Clauses {
		n := 0
		for _, l := range c {
			if int(l.Var()) < len(model) && model[l.Var()] != l.Sign() {
				n++
			}
		}
		ml.satCnt[i] = n
	}
	out := ml.space.FromModel(model)
	// Free positions from the last to the first, which for preimage
	// instances frees primary inputs before state bits.
	for pos := ml.space.Size() - 1; pos >= 0; pos-- {
		v := ml.space.Vars()[pos]
		if int(v) >= len(model) {
			out[pos] = lit.Unknown
			continue
		}
		// The literal of v that is true under the model.
		trueLit := lit.New(v, !model[v])
		ok := true
		for _, ci := range ml.occ[trueLit] {
			if ml.satCnt[ci] <= 1 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, ci := range ml.occ[trueLit] {
			ml.satCnt[ci]--
		}
		out[pos] = lit.Unknown
	}
	return out
}
