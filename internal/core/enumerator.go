// Package core implements the paper's primary contribution: a SAT
// all-solutions enumerator specialized for preimage computation.
//
// Instead of the classical solve/block/repeat loop, the enumerator runs a
// structured DPLL search that branches only on the projection variables
// (present-state and primary-input variables of a preimage instance), in a
// fixed static order, and assembles the solution set directly as an ROBDD
// over those variables:
//
//   - The search runs on the CDCL kernel of internal/sat: core makes the
//     decisions (projection variables only, in projection order) and the
//     solver propagates them over its clause arena; internal circuit
//     variables are never decided, only implied.
//   - When every original clause is satisfied, the remaining (unassigned)
//     projection variables are don't cares: the search returns the BDD
//     constant True, covering 2^k projections at once (cube enlargement).
//   - When both branches of a projection variable complete, the node
//     ITE(v, hi, lo) is built in the shared BDD manager, so the final
//     answer is the preimage as a canonical ROBDD — no blocking clauses
//     are ever added.
//   - Success-driven learning: every completed subproblem is memoized
//     under a canonical signature of its residual — the set of not-yet-
//     satisfied clauses restricted to their unassigned literals,
//     maintained as an incremental 128-bit Zobrist hash. When an
//     equivalent residual recurs — which is frequent in circuits with
//     reconvergent or replicated logic, and happens across sibling
//     branches whenever the decided variable has ceased to matter — the
//     stored solution sub-BDD is grafted in O(1) instead of re-searching.
//     Core keeps the signature over its own list of the original clauses,
//     following the solver's trail after each propagation and unwinding it
//     before each backtrack.
//   - Conflict-driven learning is retained: failed branches produce
//     first-UIP learned clauses (the solver's analysis and tiered learnt
//     database) that prune later UNSAT regions. Learned clauses are used
//     only for propagation and conflict detection, never for the
//     satisfaction test, so they cannot corrupt the enumeration.
package core

import (
	"fmt"

	"allsatpre/internal/allsat"
	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	"allsatpre/internal/sat"
)

// Options tunes the success-driven enumerator.
type Options struct {
	// EnableMemo turns success-driven learning (subproblem memoization)
	// on. Default true via DefaultOptions.
	EnableMemo bool
	// EnableLearning turns conflict-clause learning on.
	EnableLearning bool
	// Budget imposes wall-clock, cancellation, decision, and BDD-node
	// limits on the enumeration. When it trips, the run aborts with the
	// portion of the solution set assembled so far — always a sound
	// under-approximation. The zero Budget is unbounded.
	Budget budget.Budget
	// OnDecision, when set, is polled once per projection decision; a
	// non-None reason aborts the enumeration like a tripped budget. The
	// parallel pool uses it to enforce a single global decision budget
	// across workers via a shared atomic counter.
	OnDecision func() budget.Reason
	// Manager, when non-nil, is used as the enumerator's solution-set
	// manager instead of constructing a fresh one. The caller must hand
	// it over empty (fresh or Reset) with its variable order equal to
	// space.Vars(); ownership passes to the enumerator until the caller
	// takes it back (e.g. a warm pool releasing it after the run).
	Manager *bdd.Manager
}

// DefaultOptions enables both learning mechanisms.
func DefaultOptions() Options {
	return Options{EnableMemo: true, EnableLearning: true}
}

// IsZero reports whether the options are the zero value, in which case
// callers substitute DefaultOptions. Field-wise because Options holds a
// function value and is not comparable.
func (o Options) IsZero() bool {
	return !o.EnableMemo && !o.EnableLearning && o.Budget.IsZero() &&
		o.OnDecision == nil && o.Manager == nil
}

// DefaultMemoLimit bounds the success-driven memo table: when the entry
// count reaches it, the whole table is cleared (a clear-on-threshold
// policy, counted in Stats.CacheClears), bounding memory on deep
// enumerations at the price of re-deriving evicted subproblems. At
// roughly 24 bytes per entry this caps the table near 25 MB — far beyond
// what the benchmark circuits populate, so it only engages on
// pathological instances.
const DefaultMemoLimit = 1 << 20

// Enumerator is the success-driven all-solutions engine for one formula
// and projection. Create with New, run with Enumerate.
type Enumerator struct {
	opts Options
	s    *sat.Solver // the CDCL kernel the search runs on

	// orig holds the normalized original clauses; a clause's index is its
	// id in the residual signature. occ[l] lists the clauses containing
	// literal l, and occKey[l], parallel to it, the falsity key of l in
	// each (falseKey, computed once). satBy[ci] is the trail position of
	// the literal that satisfied clause ci, -1 while none; synced is the
	// trail prefix already folded into satBy and the signature.
	orig     [][]lit.Lit
	occ      [][]int32
	occKey   [][]sig128
	satBy    []int32
	synced   int
	unsatCnt int

	// Residual-subproblem signature (success-driven learning). The
	// residual of a search state is the set of not-yet-satisfied original
	// clauses, each restricted to its unassigned literals; it exactly
	// determines the solution set over the remaining projection
	// variables. resid is a 128-bit Zobrist hash of that residual,
	// maintained incrementally: contrib[ci] is clause ci's current
	// contribution (base key ⊕ keys of its falsified literals), XORed
	// into resid while the clause is unsatisfied.
	resid   sig128
	contrib []sig128

	proj   []lit.Var
	isProj []bool

	man       *bdd.Manager
	memo      map[sig128]bdd.Ref
	memoLimit int // DefaultMemoLimit; tests lower it to force clears

	residScan   int  // rotating scan pointer for residualSAT
	rootUnsat   bool // the formula is UNSAT at the root
	aborted     bool // resource budget exhausted
	abortReason budget.Reason
	check       *budget.Checker // nil when the budget is unbounded

	// Incremental-clause state (see incr.go). groupOf tags each original
	// clause with its dynamic group (0 = permanent); dynUnsat counts the
	// unsatisfied clauses of the open group, so the memo can tell which
	// entries embed the current target; stepSigs records those entries
	// for invalidation when the group retires.
	groupOf      []int32
	groupClauses []int32 // clause indexes of the open group
	curGroup     int32   // open group id (0 = none)
	nextGroup    int32
	dynUnsat     int
	stepSigs     []sig128

	// Per-call soft decision cap (EnumerateUnder): when the call exceeds
	// callMaxDec decisions, splitReq is raised and the search unwinds with
	// partial results discarded, asking the caller to split the subcube.
	callMaxDec  uint64
	callBaseDec uint64
	splitReq    bool

	stats allsat.Stats
}

// New prepares an enumerator for formula f projected onto the variables of
// space (which become the BDD variable order, top to bottom). The search
// runs on solver s, which must be fresh or Reset (nil: a new one with
// default options); the enumerator owns it until the caller takes it back
// with Solver (e.g. a warm pool releasing it after the run).
func New(s *sat.Solver, f *cnf.Formula, space *cube.Space, opts Options) *Enumerator {
	opts.Budget = opts.Budget.Materialize()
	if s == nil {
		s = sat.New(sat.Options{})
	}
	man := opts.Manager
	if man == nil {
		man = bdd.NewOrdered(space.Vars())
	}
	n := f.NumVars
	e := &Enumerator{
		opts:      opts,
		s:         s,
		occ:       make([][]int32, 2*n),
		occKey:    make([][]sig128, 2*n),
		proj:      space.Vars(),
		isProj:    make([]bool, n),
		man:       man,
		memo:      make(map[sig128]bdd.Ref),
		memoLimit: DefaultMemoLimit,
	}
	for _, v := range e.proj {
		if int(v) >= n {
			panic(fmt.Sprintf("core: projection variable %v outside formula", v))
		}
		e.isProj[v] = true
	}
	e.rootUnsat = !s.LoadFormula(f)

	// Normalize the clauses into one backing array, then carve the
	// occurrence lists out of a second one sized exactly — one allocation
	// each instead of an append-doubling chain per literal.
	total := 0
	for _, c := range f.Clauses {
		total += len(c)
	}
	litBack := make([]lit.Lit, 0, total)
	e.orig = make([][]lit.Lit, 0, len(f.Clauses))
	occCnt := make([]int32, 2*n)
	for _, c := range f.Clauses {
		start := len(litBack)
		litBack = append(litBack, c...)
		nc, taut := cnf.Clause(litBack[start:]).NormalizeInPlace()
		if taut {
			litBack = litBack[:start]
			continue
		}
		litBack = litBack[:start+len(nc)]
		e.orig = append(e.orig, litBack[start:len(litBack):len(litBack)])
		for _, l := range nc {
			occCnt[l]++
		}
	}
	occBack := make([]int32, len(litBack))
	keyBack := make([]sig128, len(litBack))
	pos := 0
	for l, cnt := range occCnt {
		// Three-index caps keep a list that later outgrows its chunk from
		// stomping its neighbour: the overflowing append reallocates.
		e.occ[l] = occBack[pos : pos : pos+int(cnt)]
		e.occKey[l] = keyBack[pos : pos : pos+int(cnt)]
		pos += int(cnt)
	}
	e.satBy = make([]int32, len(e.orig))
	e.contrib = make([]sig128, len(e.orig))
	e.groupOf = make([]int32, len(e.orig))
	for ci, cl := range e.orig {
		e.satBy[ci] = -1
		base := clauseBase(int32(ci))
		e.contrib[ci] = base
		e.resid.xor(base)
		for _, l := range cl {
			e.addOcc(l, int32(ci))
		}
	}
	e.unsatCnt = len(e.orig)
	// Fold in the root assignment the solver's unit propagation made.
	e.sync()
	return e
}

// Solver returns the solver the enumerator searches on.
func (e *Enumerator) Solver() *sat.Solver { return e.s }

// sync folds the trail literals assigned since the last call into the
// satisfied-clause index and the residual signature. Called at
// conflict-free propagation fixpoints, so each trail position is folded
// once per assign/unassign cycle.
func (e *Enumerator) sync() {
	trail := e.s.Trail()
	for ; e.synced < len(trail); e.synced++ {
		l := trail[e.synced]
		pos := int32(e.synced)
		// Clauses containing l become satisfied: drop them from the residual.
		for _, ci := range e.occ[l] {
			if e.satBy[ci] < 0 {
				e.satBy[ci] = pos
				e.unsatCnt--
				e.resid.xor(e.contrib[ci])
				if e.groupOf[ci] != 0 {
					e.dynUnsat--
				}
			}
		}
		// Clauses containing ¬l lose a literal: fold the falsity key in.
		nl := l.Not()
		for i, ci := range e.occ[nl] {
			k := e.occKey[nl][i]
			e.contrib[ci].xor(k)
			if e.satBy[ci] < 0 {
				e.resid.xor(k)
			}
		}
	}
}

// backtrack undoes every decision level above lvl: it unwinds the
// satisfied-clause index and the signature over the removed trail suffix,
// then backtracks the solver. All backtracking goes through here.
func (e *Enumerator) backtrack(lvl int) {
	if e.s.DecisionLevel() <= lvl {
		return
	}
	bound := e.s.LevelStart(lvl + 1)
	trail := e.s.Trail()
	for i := e.synced - 1; i >= bound; i-- {
		l := trail[i]
		nl := l.Not()
		for j, ci := range e.occ[nl] {
			k := e.occKey[nl][j]
			e.contrib[ci].xor(k)
			if e.satBy[ci] < 0 {
				e.resid.xor(k)
			}
		}
		for _, ci := range e.occ[l] {
			if e.satBy[ci] == int32(i) {
				e.satBy[ci] = -1
				e.unsatCnt++
				e.resid.xor(e.contrib[ci])
				if e.groupOf[ci] != 0 {
					e.dynUnsat++
				}
			}
		}
	}
	e.synced = min(e.synced, bound)
	e.s.Backtrack(lvl)
}

// popLevel undoes the topmost decision level.
func (e *Enumerator) popLevel() { e.backtrack(e.s.DecisionLevel() - 1) }

// decide opens a decision level for l and propagates it, following the
// trail on success. On a conflict the level is left open for the caller's
// analysis; either way the caller pops it.
func (e *Enumerator) decide(l lit.Lit) bool {
	e.s.Decide(l)
	if !e.s.Propagate() {
		return false
	}
	e.sync()
	return true
}

// sig128 is a 128-bit Zobrist hash value.
type sig128 struct{ a, b uint64 }

func (s *sig128) xor(o sig128) {
	s.a ^= o.a
	s.b ^= o.b
}

// splitmix64 is the SplitMix64 finalizer, used to derive Zobrist keys
// deterministically from clause ids and literals.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// clauseBase is the Zobrist key of clause ci being present (unsatisfied,
// all literals alive) in the residual.
func clauseBase(ci int32) sig128 {
	a := splitmix64(uint64(ci)*2 + 1)
	return sig128{a: a, b: splitmix64(a ^ 0xd1b54a32d192ed03)}
}

// addOcc lists clause ci in l's occurrence list, with its falsity key.
func (e *Enumerator) addOcc(l lit.Lit, ci int32) {
	e.occ[l] = append(e.occ[l], ci)
	e.occKey[l] = append(e.occKey[l], falseKey(ci, l))
}

// falseKey is the Zobrist key of literal l of clause ci being falsified.
func falseKey(ci int32, l lit.Lit) sig128 {
	a := splitmix64(uint64(ci+1)<<20 ^ uint64(l)*0x9e3779b97f4a7c15)
	return sig128{a: a, b: splitmix64(a ^ 0x2545f4914f6cdd1d)}
}

// Result bundles the solution BDD with the shared manager.
type Result struct {
	// Manager owns Set; its variable order is the projection order.
	Manager *bdd.Manager
	// Set is the projection of all models as an ROBDD.
	Set bdd.Ref
	// Stats holds search counters.
	Stats allsat.Stats
	// Aborted is true when a resource limit stopped the search early; Set
	// is then an under-approximation and Reason says what tripped.
	Aborted bool
	Reason  budget.Reason
}

// Enumerate runs the search and returns the solution BDD. If the budget
// trips mid-search the returned Set covers only the subtrees completed so
// far — a sound under-approximation — with Aborted and Reason set.
func (e *Enumerator) Enumerate() *Result {
	if e.check == nil && !e.opts.Budget.IsZero() {
		e.check = e.opts.Budget.Start()
	}
	res := &Result{Manager: e.man}
	if e.rootUnsat {
		res.Set = bdd.False
		res.Stats = e.Stats()
		return res
	}
	set := e.enumerate()
	// Fold in projection literals implied at the root level.
	for _, l := range e.s.Trail() {
		if e.isProj[l.Var()] {
			set = e.man.And(set, e.man.Lit(l))
		}
	}
	res.Set = set
	res.Stats = e.Stats()
	res.Stats.BDDNodes = e.man.NumNodes()
	res.Stats.Kernel = e.man.Kernel()
	res.Aborted = e.aborted
	res.Reason = e.abortReason
	return res
}

// enumerate explores the subproblem under the current assignment (BCP
// complete, conflict-free) and returns its solution set over the
// still-unassigned projection variables.
func (e *Enumerator) enumerate() bdd.Ref {
	if e.unsatCnt == 0 {
		e.stats.Solutions++
		return bdd.True
	}
	var sig sig128
	if e.opts.EnableMemo {
		sig = e.resid
		e.stats.CacheLookups++
		if r, ok := e.memo[sig]; ok {
			e.stats.CacheHits++
			return r
		}
	}
	// Next decision: the first unassigned projection variable.
	v := lit.UndefVar
	for _, pv := range e.proj {
		if e.s.Value(pv) == lit.Unknown {
			v = pv
			break
		}
	}
	var r bdd.Ref
	if v == lit.UndefVar {
		// All projection variables assigned; decide the residual problem.
		if e.residualSAT() {
			e.stats.Solutions++
			r = bdd.True
		} else {
			r = bdd.False
		}
	} else {
		lo := e.branch(lit.Neg(v))
		hi := e.branch(lit.Pos(v))
		r = e.man.ITE(e.man.Var(v), hi, lo)
	}
	// Results computed after an abort or split request may be truncated;
	// keep them out of the memo so pre-abort entries stay exact.
	if e.opts.EnableMemo && !e.aborted && !e.splitReq {
		e.memo[sig] = r
		if e.dynUnsat > 0 {
			// The residual embeds an unsatisfied clause of the open
			// dynamic group: remember the signature so RetireGroup can
			// drop the entry (its clause ids become permanently
			// satisfied, so the signature could never be probed again).
			e.stepSigs = append(e.stepSigs, sig)
		}
		if len(e.memo) >= e.memoLimit {
			clear(e.memo)
			e.stepSigs = e.stepSigs[:0]
			e.stats.CacheClears++
		}
	}
	return r
}

// branch explores one phase of a decision variable and returns its
// solution set (with projection literals implied under the branch folded
// in).
func (e *Enumerator) branch(dec lit.Lit) bdd.Ref {
	if e.aborted || e.splitReq {
		return bdd.False
	}
	if maxDec := e.opts.Budget.MaxDecisions; maxDec > 0 &&
		e.stats.Decisions >= maxDec {
		e.abort(budget.Decisions)
		return bdd.False
	}
	if e.callMaxDec > 0 && e.stats.Decisions-e.callBaseDec >= e.callMaxDec {
		e.splitReq = true
		return bdd.False
	}
	if n := e.opts.Budget.MaxBDDNodes; n > 0 && e.man.NumNodes() >= n {
		e.abort(budget.Nodes)
		return bdd.False
	}
	if e.check != nil {
		if r := e.check.Poll(); r != budget.None {
			e.abort(r)
			return bdd.False
		}
	}
	if f := e.opts.OnDecision; f != nil {
		if r := f(); r != budget.None {
			e.abort(r)
			return bdd.False
		}
	}
	mark := len(e.s.Trail())
	e.stats.Decisions++
	if !e.decide(dec) {
		e.stats.Conflicts++
		if e.opts.EnableLearning {
			n := e.s.Learn()
			e.stats.BlockingClauses++ // reuse the counter as "learned clauses"
			e.stats.BlockingLits += uint64(n)
		}
		e.popLevel()
		return bdd.False
	}
	sub := e.enumerate()
	if sub != bdd.False {
		// Fold in projection literals implied by this branch (not the
		// decision itself — the caller encodes that in the ITE).
		for _, l := range e.s.Trail()[mark+1:] {
			if e.isProj[l.Var()] {
				sub = e.man.And(sub, e.man.Lit(l))
			}
		}
	}
	e.popLevel()
	return sub
}

// abort flags the enumeration as truncated, keeping the first reason.
func (e *Enumerator) abort(r budget.Reason) {
	if !e.aborted {
		e.aborted = true
		e.abortReason = r
	}
}

// residualSAT decides satisfiability of the residual problem once every
// projection variable is assigned. For circuit-derived CNF the residual is
// almost always already decided by propagation (unsatCnt == 0); the
// fallback is a plain DPLL over the remaining variables.
func (e *Enumerator) residualSAT() bool {
	if e.unsatCnt == 0 {
		return true
	}
	// Find an unsatisfied clause with an unassigned literal.
	n := len(e.orig)
	for scan := 0; scan < n; scan++ {
		ci := (e.residScan + scan) % n
		if e.satBy[ci] >= 0 {
			continue
		}
		e.residScan = ci
		for _, l := range e.orig[ci] {
			if e.s.LitValue(l) != lit.Unknown {
				continue
			}
			e.stats.Decisions++
			ok := e.decide(l) && e.residualSAT()
			e.popLevel()
			if ok {
				return true
			}
		}
		// Every literal of an unsatisfied clause is false or trying each
		// unassigned one failed: the residual is UNSAT here.
		return false
	}
	return true
}

// Extract converts r to the shared allsat result shape. Its cover is the
// Minato–Morreale ISOP cover of r.Set over space, an irredundant
// sum-of-products — typically far fewer cubes than raw 1-path
// enumeration, and the compact representation the downstream
// reachability loop feeds back as its next target. Extract is also where
// the budget's cube cap applies to this engine: with maxCubes > 0 only the
// first maxCubes cubes are kept, r.Set is narrowed to the states they
// cover, and r is marked Aborted with budget.Cubes unless an earlier
// limit already stopped the search. Extract leaves Count nil: callers
// that report it count r.Set (see EnumerateToResult), the preimage runs
// count their own projection of it.
func (r *Result) Extract(space *cube.Space, maxCubes uint64) *allsat.Result {
	cv := r.Manager.ISOP(r.Set, space)
	if maxCubes > 0 && uint64(cv.Len()) > maxCubes {
		kept := cube.NewCover(space)
		for _, c := range cv.Cubes()[:maxCubes] {
			kept.Add(c)
		}
		cv, r.Set = kept, r.Manager.FromCover(kept)
		if !r.Aborted {
			r.Aborted, r.Reason = true, budget.Cubes
		}
	}
	out := &allsat.Result{
		Space:   space,
		Cover:   cv,
		Stats:   r.Stats,
		Aborted: r.Aborted,
		Reason:  r.Reason,
	}
	out.Stats.Cubes = uint64(cv.Len())
	return out
}

// EnumerateToResult runs the engine and converts to the shared allsat
// result shape (see Extract), honoring opts.Budget's cube cap, with
// Count the minterm count of the (possibly narrowed) set.
func EnumerateToResult(f *cnf.Formula, space *cube.Space, opts Options) *allsat.Result {
	r := New(nil, f, space, opts).Enumerate()
	out := r.Extract(space, opts.Budget.MaxCubes)
	out.Count = r.Manager.SatCount(r.Set)
	return out
}
