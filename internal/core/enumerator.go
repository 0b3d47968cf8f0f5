// Package core implements the paper's primary contribution: a SAT
// all-solutions enumerator specialized for preimage computation.
//
// Instead of the classical solve/block/repeat loop, the enumerator runs a
// structured DPLL search that branches only on the projection variables
// (present-state and primary-input variables of a preimage instance), in a
// fixed static order, and assembles the solution set directly as an ROBDD
// over those variables:
//
//   - Unit propagation uses two-watched literals; internal circuit
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
//   - Conflict-driven learning is retained: failed branches produce
//     first-UIP learned clauses that prune later UNSAT regions. Learned
//     clauses are used only for propagation and conflict detection, never
//     for the satisfaction test, so they cannot corrupt the enumeration.
package core

import (
	"fmt"
	"math/big"

	"allsatpre/internal/allsat"
	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
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

type clause struct {
	lits    []lit.Lit
	learned bool
	// dead marks a clause retired by RetireGroup (or a learned clause
	// garbage-collected with it); dead clauses are swept from the watch
	// lists at retirement and stay permanently root-satisfied, so the
	// search never consults them again.
	dead bool
}

type watcher struct {
	cl      *clause
	blocker lit.Lit
}

// Enumerator is the success-driven all-solutions engine for one formula
// and projection. Create with New, run with Enumerate.
type Enumerator struct {
	opts Options

	orig    []*clause // original clauses, index-aligned with satBy
	learned []*clause
	watches [][]watcher

	assign   []lit.Tern
	reason   []*clause
	seen     []byte // analyze scratch
	dlevel   []int32
	trailIdx []int32 // variable -> trail position (valid while assigned)

	trail    []lit.Lit
	trailLim []int
	qhead    int

	// occ[l] lists original clause indexes containing literal l, for the
	// satisfied-clause bookkeeping.
	occ      [][]int32
	satBy    []int32 // original clause -> trail index that satisfied it, -1
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
	space  *cube.Space

	man       *bdd.Manager
	memo      map[sig128]bdd.Ref
	memoLimit int // DefaultMemoLimit; tests lower it to force clears

	// learnFrom scratch, reused across conflicts.
	learntBuf  []lit.Lit
	cleanupBuf []lit.Var

	// Chunked backing for learned clauses: clause structs and their
	// literal slices are carved out of fixed-capacity blocks, so a learnt
	// costs zero dedicated allocations once a chunk is open (the same
	// pre-sizing idea New applies to the original clauses, extended to
	// clauses whose count is unknown up front). Chunks are never grown in
	// place — live *clause pointers into them must stay stable — a full
	// chunk is simply replaced by a fresh one and kept alive by its
	// clauses. learnedLits counts the literals of live learned clauses
	// (the retained-learnt footprint incr sessions report).
	litChunk    []lit.Lit
	clauseChunk []clause
	learnedLits int

	residScan   int  // rotating scan pointer for residualSAT
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

	// Root preparation state (unit installation + root BCP), done once so
	// the enumerator can serve repeated EnumerateUnder calls.
	prepared  bool
	rootUnsat bool

	// Per-call soft decision cap (EnumerateUnder): when the call exceeds
	// callMaxDec decisions, splitReq is raised and the search unwinds with
	// partial results discarded, asking the caller to split the subcube.
	callMaxDec  uint64
	callBaseDec uint64
	splitReq    bool

	stats allsat.Stats
}

// New prepares an enumerator for formula f projected onto the variables of
// space (which become the BDD variable order, top to bottom).
func New(f *cnf.Formula, space *cube.Space, opts Options) *Enumerator {
	opts.Budget = opts.Budget.Materialize()
	man := opts.Manager
	if man == nil {
		man = bdd.NewOrdered(space.Vars())
	}
	n := f.NumVars
	e := &Enumerator{
		opts:     opts,
		watches:  make([][]watcher, 2*n),
		assign:   make([]lit.Tern, n),
		reason:   make([]*clause, n),
		seen:     make([]byte, n),
		dlevel:   make([]int32, n),
		trailIdx: make([]int32, n),
		occ:      make([][]int32, 2*n),
		proj:     space.Vars(),
		isProj:   make([]bool, n),
		space:    space,
		man:      man,
		memo:     make(map[sig128]bdd.Ref),
	}
	e.memoLimit = DefaultMemoLimit
	for _, v := range e.proj {
		if int(v) >= n {
			panic(fmt.Sprintf("core: projection variable %v outside formula", v))
		}
		e.isProj[v] = true
	}

	// Install the clauses in two passes: normalize and count first, then
	// carve the occurrence lists, clause literals, and initial watch lists
	// out of single backing arrays sized exactly — one allocation each
	// instead of an append-doubling chain per literal.
	norm := make([]cnf.Clause, 0, len(f.Clauses))
	occCnt := make([]int32, 2*n)
	watchCnt := make([]int32, 2*n)
	totalLits := 0
	for _, c := range f.Clauses {
		nc, taut := c.Normalize()
		if taut {
			continue
		}
		norm = append(norm, nc)
		totalLits += len(nc)
		for _, l := range nc {
			occCnt[l]++
		}
		if len(nc) >= 2 {
			watchCnt[nc[0].Not()]++
			watchCnt[nc[1].Not()]++
		}
	}
	occBack := make([]int32, totalLits)
	pos := 0
	for l, cnt := range occCnt {
		if cnt == 0 {
			continue
		}
		e.occ[l] = occBack[pos : pos : pos+int(cnt)]
		pos += int(cnt)
	}
	totalWatch := 0
	for _, cnt := range watchCnt {
		totalWatch += int(cnt)
	}
	watchBack := make([]watcher, totalWatch)
	pos = 0
	for l, cnt := range watchCnt {
		if cnt == 0 {
			continue
		}
		// Three-index caps keep a list that later outgrows its chunk from
		// stomping its neighbour: the overflowing append reallocates.
		e.watches[l] = watchBack[pos : pos : pos+int(cnt)]
		pos += int(cnt)
	}
	litBack := make([]lit.Lit, 0, totalLits)
	clauseBack := make([]clause, len(norm))
	e.orig = make([]*clause, 0, len(norm))
	e.satBy = make([]int32, 0, len(norm))
	e.contrib = make([]sig128, 0, len(norm))
	e.groupOf = make([]int32, 0, len(norm))
	for i, nc := range norm {
		start := len(litBack)
		litBack = append(litBack, nc...)
		cl := &clauseBack[i]
		cl.lits = litBack[start:len(litBack):len(litBack)]
		e.install(cl)
	}
	return e
}

// install records a normalized problem clause: residual signature,
// occurrence lists, and (for clauses of length ≥ 2) the watch pair. Unit
// and empty clauses are handled at Enumerate start.
func (e *Enumerator) install(cl *clause) {
	ci := int32(len(e.orig))
	e.orig = append(e.orig, cl)
	e.satBy = append(e.satBy, -1)
	e.groupOf = append(e.groupOf, 0)
	e.unsatCnt++
	base := clauseBase(ci)
	e.contrib = append(e.contrib, base)
	e.resid.xor(base)
	for _, l := range cl.lits {
		e.occ[l] = append(e.occ[l], ci)
	}
	if len(cl.lits) >= 2 {
		e.attach(cl)
	}
}

func (e *Enumerator) attach(cl *clause) {
	w0, w1 := cl.lits[0].Not(), cl.lits[1].Not()
	e.watches[w0] = append(e.watches[w0], watcher{cl: cl, blocker: cl.lits[1]})
	e.watches[w1] = append(e.watches[w1], watcher{cl: cl, blocker: cl.lits[0]})
}

func (e *Enumerator) litValue(l lit.Lit) lit.Tern {
	return e.assign[l.Var()].XorSign(l.Sign())
}

func (e *Enumerator) enqueue(l lit.Lit, from *clause) {
	v := l.Var()
	e.assign[v] = lit.TernOf(!l.Sign())
	e.reason[v] = from
	e.dlevel[v] = int32(len(e.trailLim))
	pos := int32(len(e.trail))
	e.trailIdx[v] = pos
	e.trail = append(e.trail, l)
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
	for _, ci := range e.occ[nl] {
		k := falseKey(ci, nl)
		e.contrib[ci].xor(k)
		if e.satBy[ci] < 0 {
			e.resid.xor(k)
		}
	}
}

// bcp propagates to fixpoint; returns the conflicting clause or nil.
func (e *Enumerator) bcp() *clause {
	for e.qhead < len(e.trail) {
		p := e.trail[e.qhead]
		e.qhead++
		ws := e.watches[p]
		out := ws[:0]
		var confl *clause
	watchLoop:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if e.litValue(w.blocker) == lit.True {
				out = append(out, w)
				continue
			}
			c := w.cl
			falseLit := p.Not()
			if c.lits[0] == falseLit {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && e.litValue(first) == lit.True {
				out = append(out, watcher{cl: c, blocker: first})
				continue
			}
			for k := 2; k < len(c.lits); k++ {
				if e.litValue(c.lits[k]) != lit.False {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					nw := c.lits[1].Not()
					e.watches[nw] = append(e.watches[nw], watcher{cl: c, blocker: first})
					continue watchLoop
				}
			}
			out = append(out, watcher{cl: c, blocker: first})
			switch e.litValue(first) {
			case lit.False:
				confl = c
				e.qhead = len(e.trail)
				for i++; i < len(ws); i++ {
					out = append(out, ws[i])
				}
			case lit.Unknown:
				e.stats.Propagations++
				e.enqueue(first, c)
			}
			if confl != nil {
				break
			}
		}
		e.watches[p] = out
		if confl != nil {
			return confl
		}
	}
	return nil
}

// pushLevel opens a new decision level and returns the trail mark.
func (e *Enumerator) pushLevel() int {
	e.trailLim = append(e.trailLim, len(e.trail))
	return len(e.trail)
}

// popLevel undoes the topmost decision level.
func (e *Enumerator) popLevel() {
	mark := e.trailLim[len(e.trailLim)-1]
	e.trailLim = e.trailLim[:len(e.trailLim)-1]
	for i := len(e.trail) - 1; i >= mark; i-- {
		l := e.trail[i]
		v := l.Var()
		e.assign[v] = lit.Unknown
		e.reason[v] = nil
		nl := l.Not()
		for _, ci := range e.occ[nl] {
			k := falseKey(ci, nl)
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
	e.trail = e.trail[:mark]
	e.qhead = len(e.trail)
}

// sig128 is a 128-bit Zobrist hash value.
type sig128 struct{ a, b uint64 }

func (s *sig128) xor(o sig128) {
	s.a ^= o.a
	s.b ^= o.b
}

// splitmix64 is the SplitMix64 finalizer, used to derive Zobrist keys
// deterministically from clause ids and literals (no key tables needed).
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
	if !e.prepareRoot() {
		res.Set = bdd.False
		res.Stats = e.stats
		return res
	}
	set := e.enumerate()
	// Fold in projection literals implied at the root level.
	for _, l := range e.trail {
		if e.isProj[l.Var()] {
			set = e.man.And(set, e.man.Lit(l))
		}
	}
	res.Set = set
	res.Stats = e.stats
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
		if e.assign[pv] == lit.Unknown {
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
	mark := e.pushLevel()
	e.stats.Decisions++
	e.enqueue(dec, nil)
	if confl := e.bcp(); confl != nil {
		e.stats.Conflicts++
		if e.opts.EnableLearning {
			e.learnFrom(confl)
		}
		e.popLevel()
		return bdd.False
	}
	sub := e.enumerate()
	if sub != bdd.False {
		// Fold in projection literals implied by this branch (not the
		// decision itself — the caller encodes that in the ITE).
		for i := mark + 1; i < len(e.trail); i++ {
			l := e.trail[i]
			if e.isProj[l.Var()] {
				sub = e.man.And(sub, e.man.Lit(l))
			}
		}
	}
	e.popLevel()
	return sub
}

// learnFrom performs first-UIP conflict analysis and installs the learned
// clause for future propagation. The clause is implied by the original
// formula, so it can only prune, never change, the solution set.
func (e *Enumerator) learnFrom(confl *clause) {
	level := int32(len(e.trailLim))
	if level == 0 {
		return
	}
	// learntBuf and cleanupBuf are per-enumerator scratch: conflicts are
	// frequent and the buffers reach steady-state capacity quickly, so the
	// analysis itself allocates nothing; only a kept clause copies out.
	e.learntBuf = e.learntBuf[:0]
	e.cleanupBuf = e.cleanupBuf[:0]
	pathC := 0
	idx := len(e.trail) - 1
	var p lit.Lit = lit.UndefLit

	expand := func(c *clause, skipFirst bool) {
		start := 0
		if skipFirst {
			start = 1
		}
		for _, q := range c.lits[start:] {
			v := q.Var()
			if e.seen[v] != 0 || e.assign[v] == lit.Unknown {
				continue
			}
			// Root-level literals are globally implied and can be dropped.
			if e.dlevel[v] == 0 {
				continue
			}
			e.seen[v] = 1
			e.cleanupBuf = append(e.cleanupBuf, v)
			if e.dlevel[v] >= level {
				pathC++
			} else {
				e.learntBuf = append(e.learntBuf, q)
			}
		}
	}
	expand(confl, false)
	for pathC > 0 {
		for idx >= 0 && e.seen[e.trail[idx].Var()] == 0 {
			idx--
		}
		if idx < 0 {
			break
		}
		p = e.trail[idx]
		idx--
		e.seen[p.Var()] = 0
		pathC--
		if pathC == 0 {
			break
		}
		if rc := e.reason[p.Var()]; rc != nil {
			expand(rc, true)
		} else {
			// Reached a decision before the UIP: abandon learning.
			for _, v := range e.cleanupBuf {
				e.seen[v] = 0
			}
			return
		}
	}
	for _, v := range e.cleanupBuf {
		e.seen[v] = 0
	}
	if !p.IsDef() {
		return
	}
	n := len(e.learntBuf) + 1
	cl := e.allocLearnt(n)
	learnt := cl.lits
	learnt[0] = p.Not()
	copy(learnt[1:], e.learntBuf)
	e.learned = append(e.learned, cl)
	e.learnedLits += n
	e.stats.BlockingClauses++ // reuse the counter as "learned clauses"
	e.stats.BlockingLits += uint64(len(learnt))
	if len(learnt) >= 2 {
		// Watch the UIP literal and the most recently assigned other
		// literal, so the clause is inspected as soon as relevant.
		best := 1
		for k := 2; k < len(learnt); k++ {
			if e.trailPos(learnt[k].Var()) > e.trailPos(learnt[best].Var()) {
				best = k
			}
		}
		learnt[1], learnt[best] = learnt[best], learnt[1]
		e.attach(cl)
	}
}

// Chunk capacities for the learned-clause backing arrays: big enough to
// amortize allocation, small enough that a mostly-dead chunk pinned by
// one long-lived clause wastes little.
const (
	learntLitChunk    = 1 << 12
	learntClauseChunk = 256
)

// allocLearnt returns a learned clause with an n-literal backing slice,
// both carved from the current chunks (full-capacity slice expression,
// so later carves cannot alias it).
func (e *Enumerator) allocLearnt(n int) *clause {
	if cap(e.litChunk)-len(e.litChunk) < n {
		c := learntLitChunk
		if n > c {
			c = n
		}
		e.litChunk = make([]lit.Lit, 0, c)
	}
	s := len(e.litChunk)
	e.litChunk = e.litChunk[:s+n]
	lits := e.litChunk[s : s+n : s+n]
	if len(e.clauseChunk) == cap(e.clauseChunk) {
		e.clauseChunk = make([]clause, 0, learntClauseChunk)
	}
	e.clauseChunk = append(e.clauseChunk, clause{lits: lits, learned: true})
	return &e.clauseChunk[len(e.clauseChunk)-1]
}

// trailPos returns the trail index of a currently assigned variable.
func (e *Enumerator) trailPos(v lit.Var) int {
	return int(e.trailIdx[v])
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
		cl := e.orig[ci]
		for _, l := range cl.lits {
			if e.litValue(l) != lit.Unknown {
				continue
			}
			e.pushLevel()
			e.stats.Decisions++
			e.enqueue(l, nil)
			ok := e.bcp() == nil && e.residualSAT()
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

// EnumerateToResult runs the engine and converts to the shared allsat
// result shape. The cover is extracted from the solution BDD with the
// Minato–Morreale ISOP algorithm, which yields an irredundant
// sum-of-products — typically far fewer cubes than raw 1-path
// enumeration, and the compact representation the downstream reachability
// loop feeds back as its next target.
func EnumerateToResult(f *cnf.Formula, space *cube.Space, opts Options) *allsat.Result {
	e := New(f, space, opts)
	r := e.Enumerate()
	out := &allsat.Result{
		Space:   space,
		Cover:   r.Manager.ISOP(r.Set, space),
		Count:   r.Manager.SatCount(r.Set),
		Stats:   r.Stats,
		Aborted: r.Aborted,
		Reason:  r.Reason,
	}
	out.Stats.Cubes = uint64(out.Cover.Len())
	return out
}

// Count is a convenience that returns only the number of projected
// solutions.
func Count(f *cnf.Formula, space *cube.Space, opts Options) *big.Int {
	e := New(f, space, opts)
	return e.man.SatCount(e.Enumerate().Set)
}
