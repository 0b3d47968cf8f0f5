package sat

import "allsatpre/internal/lit"

// Kernel surface for search loops outside the package. The success-driven
// enumerator (internal/core) makes its own decisions on the solver: it
// opens a level per decision with Decide, propagates with Propagate,
// follows the trail at each conflict-free fixpoint to keep its own
// bookkeeping, unwinds that bookkeeping before Backtrack, and learns from
// conflicts with Learn — the discipline ChronoEnum follows inside the
// package. Propagation, first-UIP analysis, the tiered learnt database and
// Simplify are the solver's own. Do not interleave these calls with Solve.

// DecisionLevel returns the current decision level (0 = root).
func (s *Solver) DecisionLevel() int { return len(s.trailLim) }

// Trail returns the assignment trail, oldest first. The slice is the
// solver's own: read it, do not keep it across Decide or Backtrack.
func (s *Solver) Trail() []lit.Lit { return s.trail }

// LevelStart returns the trail position of decision level lvl's decision
// (1 ≤ lvl ≤ DecisionLevel()).
func (s *Solver) LevelStart(lvl int) int { return s.trailLim[lvl-1] }

// Decide opens a new decision level and assigns l true without a reason.
// l must be unassigned.
func (s *Solver) Decide(l lit.Lit) {
	s.newDecisionLevel()
	s.uncheckedEnqueue(l, crefUndef)
}

// Propagate runs unit propagation to fixpoint and reports false on a
// conflict, which Learn and Failed then analyze. After a conflict the
// trail is partial: backtrack before the next Decide.
func (s *Solver) Propagate() bool {
	s.confl = s.propagate()
	return s.confl == crefUndef
}

// Learn runs first-UIP analysis on the last conflict and stores the learnt
// clause attach-only (see learnAttached). It returns the learnt clause's
// length; a unit is not stored. Call it before backtracking.
func (s *Solver) Learn() int {
	if s.maxLearnts == 0 {
		s.initLearntCap()
	}
	return s.learnAttached(s.confl)
}

// Failed resolves an inconsistency back to the decisions that cause it,
// MiniSat's analyzeFinal: with p undefined, the last conflict; otherwise
// the falsity of p, in which case the result ends with p. Root-level
// literals are facts of the formula and drop out. When every open level
// holds an assumption, the result is a subset of the assumptions whose
// conjunction is already inconsistent with the formula.
func (s *Solver) Failed(p lit.Lit) []lit.Lit {
	marked := 0
	mark := func(v lit.Var) {
		if s.seen[v] == 0 && s.level[v] > 0 {
			s.seen[v] = 1
			marked++
		}
	}
	if p.IsDef() {
		if s.level[p.Var()] == 0 {
			return []lit.Lit{p}
		}
		mark(p.Var())
	} else {
		for _, w := range s.ca.lits(s.confl) {
			mark(lit.Lit(w).Var())
		}
	}
	var failed []lit.Lit
	for i := len(s.trail) - 1; marked > 0; i-- {
		l := s.trail[i]
		v := l.Var()
		if s.seen[v] == 0 {
			continue
		}
		s.seen[v] = 0
		marked--
		r := s.reason[v]
		if r == crefUndef {
			failed = append(failed, l)
			continue
		}
		for _, w := range s.ca.lits(r) {
			if q := lit.Lit(w).Var(); q != v {
				mark(q)
			}
		}
	}
	if p.IsDef() {
		failed = append(failed, p)
	}
	return failed
}

// initLearntCap sizes the learnt database cap from the problem clauses.
func (s *Solver) initLearntCap() {
	s.maxLearnts = max(float64(len(s.clauses))*s.opts.LearntFactor, 100)
}

// learnAttached runs first-UIP analysis and stores the learnt clause
// attach-only: it joins the watch lists (pruning future descents) but is
// never used as an enqueue reason, so the caller's backtracking keeps full
// control of the trail. The clause is implied by the formula alone, so it
// can never exclude a model; deleting one is therefore sound, and the
// attach-only learnts go through the same tiered database as CDCL
// learnts. The tier rules give them exactly the protection they need: a
// clause that prunes a descent participates in the conflict analysis,
// which sets its used bit (and may promote it), and reduceDB never
// deletes a used clause — so a learnt cannot be dropped in the same round
// it pruned a subtree (pinned by TestChronoAttachOnlySurvival).
func (s *Solver) learnAttached(confl cref) int {
	learnt, _, lbd := s.analyze(confl)
	s.varDecay()
	s.claDecay()
	n := len(learnt)
	if n < 2 {
		// Unit (or empty) consequences are rediscovered by propagation;
		// installing them mid-tree would need out-of-order enqueueing.
		return n
	}
	s.installLearnt(learnt, lbd)
	s.stats.Learned++
	s.stats.LearnedLits += uint64(n)
	if s.reduceNeeded() {
		s.reduceDB()
	}
	return n
}
