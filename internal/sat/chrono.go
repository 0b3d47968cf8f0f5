package sat

import (
	"allsatpre/internal/budget"
	"allsatpre/internal/lit"
)

// ChronoEnum enumerates the projections of a formula's models as
// pairwise-disjoint cubes without ever adding a blocking clause, in the
// style of Spallitta/Sebastiani/Biere's disjoint partial enumeration:
// after each emitted cube (and after each conflict) the search advances by
// flipping the deepest relevant decision in place — chronological
// backtracking — instead of learning a clause that excludes the region.
// The clause database therefore stays O(1) in the number of solutions;
// only ordinary first-UIP conflict clauses (implied by the formula, never
// by the enumeration history) are retained, and those are subject to the
// usual activity-based reduction.
//
// The enumeration discipline:
//
//   - Projection variables are decided strictly before auxiliary ones
//     (auxiliary decisions use the solver's VSIDS order). Because a flip
//     replaces a decision with its negation at the same level, levels
//     1..p always carry projection decisions and levels p+1..d auxiliary
//     ones — the projection-prefix invariant.
//   - A cube is emitted as soon as every problem clause is satisfied by
//     the current trail (tracked by a per-clause occurrence index), so
//     the projection variables still unassigned are free in it. The
//     cube keeps the projection literals of levels 1..p and drops the
//     auxiliary suffix (one witness per projection region suffices).
//   - Advancing pops to level p, discards flipped levels, and flips the
//     deepest unflipped decision; when none remains the space is
//     exhausted.
//
// A ChronoEnum owns its solver for the duration of the enumeration: do
// not interleave Solve or AddClause calls with Next.
type ChronoEnum struct {
	s    *Solver
	proj []lit.Var

	// pos maps a variable to its position in proj, -1 for auxiliaries;
	// sized at creation (no new vars appear).
	pos []int32

	// Satisfaction bookkeeping over the problem clauses at creation time.
	// satBy[ci] is the trail index of the first (hence lowest-level)
	// satisfying literal of clause ci, -1 while none; satHead is the trail
	// prefix already folded in; unsatCnt counts clauses with satBy < 0.
	//
	// clauses SHARES the solver's problem-clause slice: the occurrence
	// lists hold positions into it, and arena compaction (reachable from
	// learnAttached's reduceDB) rewrites the crefs in place,
	// position-preserving, precisely so these indexes survive.
	clauses  []cref
	occ      [][]int32 // literal -> clause indexes
	satBy    []int32
	satHead  int
	unsatCnt int

	flipped []bool    // by decision level (flipped[l-1] for level l)
	cube    []lit.Lit // projection literals of the last emitted cube

	learn     bool
	exhausted bool
	stopped   bool
}

// NewChronoEnum prepares a chronological enumeration of the projections
// of s's clause set onto proj. The solver must be at decision level 0;
// the enumerator takes ownership of it until the enumeration ends. The
// solver's Budget bounds the whole enumeration
// (Next then answers Unknown and StopReason reports the limit).
func NewChronoEnum(s *Solver, proj []lit.Var) *ChronoEnum {
	if s.DecisionLevel() != 0 {
		panic("sat: NewChronoEnum above decision level 0")
	}
	maxVar := 0
	for _, v := range proj {
		if int(v)+1 > maxVar {
			maxVar = int(v) + 1
		}
	}
	s.EnsureVars(maxVar)
	e := &ChronoEnum{
		s:     s,
		proj:  append([]lit.Var(nil), proj...),
		learn: true,
	}
	e.pos = make([]int32, s.NumVars())
	for v := range e.pos {
		e.pos[v] = -1
	}
	for i, v := range proj {
		e.pos[v] = int32(i)
	}
	e.clauses = s.clauses
	e.occ = make([][]int32, 2*s.NumVars())
	e.satBy = make([]int32, len(e.clauses))
	for ci, c := range e.clauses {
		e.satBy[ci] = -1
		for _, w := range s.ca.lits(c) {
			e.occ[w] = append(e.occ[w], int32(ci))
		}
	}
	e.unsatCnt = len(e.clauses)
	s.initLearntCap()
	return e
}

// Next advances to the next solution cube. Sat means a cube is available
// via Cube; Unsat means the projection space is exhausted (the cubes seen
// so far are exactly the projection); Unknown means a resource limit
// tripped (StopReason tells which) and the cubes so far under-approximate
// the projection.
func (e *ChronoEnum) Next() Status { return e.next(nil) }

// next is Next with a hook that sees the enumerator at every emission,
// before the cube is cut; atEmit is nil outside tests.
func (e *ChronoEnum) next(atEmit func(*ChronoEnum)) Status {
	s := e.s
	if !s.okay || e.exhausted {
		return Unsat
	}
	if e.stopped {
		return Unknown
	}
	if s.check == nil && !s.opts.Budget.IsZero() {
		s.check = s.opts.Budget.Start()
	}
	// Immediate (non-amortized) check at every cube boundary, matching
	// Solve's entry check: enumeration between solutions can be
	// conflict-free, and the amortized polls below would let a cancelled
	// context go unnoticed for hundreds of cheap cubes otherwise.
	if s.check != nil {
		if r := s.check.Now(); r != budget.None {
			s.stopReason = r
			e.stopped = true
			return Unknown
		}
	}
	for {
		confl := s.propagate()
		if confl != crefUndef {
			s.stats.Conflicts++
			if s.DecisionLevel() == 0 {
				s.okay = false
				e.exhausted = true
				return Unsat
			}
			// Amortized budget poll on the conflict path, mirroring the
			// CDCL search loop: a consecutive-conflict streak must not
			// overshoot the caps unboundedly.
			if s.stats.Conflicts&63 == 0 && s.limitExceeded() {
				e.stopped = true
				return Unknown
			}
			if e.learn {
				s.learnAttached(confl)
			}
			if !e.advance() {
				e.exhausted = true
				return Unsat
			}
			continue
		}
		e.syncSat()
		if e.unsatCnt == 0 {
			if atEmit != nil {
				atEmit(e)
			}
			e.emit()
			return Sat
		}
		if s.limitExceeded() {
			e.stopped = true
			return Unknown
		}
		next := e.pickDecision()
		if !next.IsDef() {
			// A conflict-free propagation fixpoint over a total assignment
			// satisfies every clause, so unsatCnt must have been zero.
			panic("sat: chrono fixpoint left a clause unsatisfied")
		}
		e.flipped = append(e.flipped, false)
		s.stats.Decisions++
		s.Decide(next)
	}
}

// Cube returns the projection literals of the cube produced by the last
// Sat answer. The slice is reused by the next Next call.
func (e *ChronoEnum) Cube() []lit.Lit { return e.cube }

// StopReason reports why Next returned Unknown (budget.None otherwise).
func (e *ChronoEnum) StopReason() budget.Reason { return e.s.stopReason }

// ProjPos returns the position of v in the projection the enumerator was
// built over, or -1 when v is not a projection variable.
func (e *ChronoEnum) ProjPos(v lit.Var) int {
	if int(v) < len(e.pos) {
		return int(e.pos[v])
	}
	return -1
}

func (e *ChronoEnum) projVar(v lit.Var) bool { return e.ProjPos(v) >= 0 }

// pickDecision decides the first unassigned projection variable (saved
// phase), falling back to VSIDS over the auxiliaries once the projection
// is total — the decision discipline behind the prefix invariant.
func (e *ChronoEnum) pickDecision() lit.Lit {
	s := e.s
	for _, v := range e.proj {
		if s.assign[v] == lit.Unknown {
			return lit.New(v, s.polarity[v])
		}
	}
	return s.pickBranchLit()
}

// syncSat folds newly assigned trail literals into the satisfied-clause
// index. Called only at propagation fixpoints, so the fold is linear and
// each trail position is processed once per assign/unassign cycle.
func (e *ChronoEnum) syncSat() {
	s := e.s
	for ; e.satHead < len(s.trail); e.satHead++ {
		l := s.trail[e.satHead]
		for _, ci := range e.occ[l] {
			if e.satBy[ci] < 0 {
				e.satBy[ci] = int32(e.satHead)
				e.unsatCnt--
			}
		}
	}
}

// cancelToLevel is the enumerator's backtrack: it unwinds the satisfied-
// clause index over the removed trail suffix, then delegates to the
// solver and trims the per-level flip flags. All backtracking during an
// enumeration must go through here.
func (e *ChronoEnum) cancelToLevel(level int) {
	s := e.s
	if s.DecisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	if e.satHead > bound {
		for i := e.satHead - 1; i >= bound; i-- {
			l := s.trail[i]
			for _, ci := range e.occ[l] {
				if e.satBy[ci] == int32(i) {
					e.satBy[ci] = -1
					e.unsatCnt++
				}
			}
		}
		e.satHead = bound
	}
	s.Backtrack(level)
	e.flipped = e.flipped[:level]
}

// advance pops flipped levels off the top and flips the deepest unflipped
// decision in place (same level, negated literal, no reason). It returns
// false when every level is flipped — the search tree is exhausted.
func (e *ChronoEnum) advance() bool {
	s := e.s
	for s.DecisionLevel() > 0 && e.flipped[s.DecisionLevel()-1] {
		e.cancelToLevel(s.DecisionLevel() - 1)
	}
	d := s.DecisionLevel()
	if d == 0 {
		return false
	}
	dec := s.trail[s.trailLim[d-1]]
	e.cancelToLevel(d - 1)
	e.flipped = append(e.flipped, true)
	s.Decide(dec.Not())
	return true
}

// emit cuts the current (all-clauses-satisfied) trail into a cube and
// advances past the region it covers. The cube is the projection
// literals of the projection prefix, levels 1..p; the auxiliary levels
// p+1..d are dropped. The cube cannot be cut above p: a level is
// opened only over a prefix that leaves some clause unsatisfied, either
// by a fresh decision, which Next makes only when unsatCnt > 0 at the
// previous level's fixpoint, or by a flip, which keeps that prefix, so
// at emission some clause is first satisfied at level d. Soundness: auxiliary decisions start only once every
// projection variable is assigned, so with d > p the cube fixes the
// projection of the trail's model; with d = p the trail satisfies every
// clause, and what it leaves free is a don't-care. Disjointness: the
// cube retains every projection decision, and each future region
// carries the negation of one of them (the one advance flips, or a
// shallower one), so no later cube can intersect this one.
func (e *ChronoEnum) emit() {
	s := e.s
	d := s.DecisionLevel()
	p := 0
	for p < d && e.projVar(s.trail[s.trailLim[p]].Var()) {
		p++ // auxiliary levels follow the projection prefix (prefix invariant)
	}
	end := len(s.trail)
	if p < d {
		end = s.trailLim[p]
	}
	e.cube = e.cube[:0]
	for _, l := range s.trail[:end] {
		if e.projVar(l.Var()) {
			e.cube = append(e.cube, l)
		}
	}
	e.cancelToLevel(p)
	if !e.advance() {
		e.exhausted = true
	}
}
