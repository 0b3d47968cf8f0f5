package sat

import (
	"slices"

	"allsatpre/internal/budget"
	"allsatpre/internal/lit"
)

// Solve determines satisfiability of the current clause set under the given
// assumption literals. On Sat, Model reports the assignment. Unknown is
// returned only when a limit of Options.Budget is exceeded; StopReason
// then tells which one.
func (s *Solver) Solve(assumptions ...lit.Lit) Status {
	s.Backtrack(0)
	s.stopReason = budget.None
	if !s.okay {
		return Unsat
	}
	if s.check == nil && !s.opts.Budget.IsZero() {
		s.check = s.opts.Budget.Start()
	}
	if s.check != nil {
		if r := s.check.Now(); r != budget.None {
			s.stopReason = r
			return Unknown
		}
	}
	for _, a := range assumptions {
		if int(a.Var()) >= len(s.assign) {
			s.EnsureVars(int(a.Var()) + 1)
		}
	}
	s.assumptions = assumptions

	s.initLearntCap()

	var curRestart uint64 = 1
	for {
		restartCap := s.opts.RestartBase * luby(curRestart)
		st := s.search(restartCap)
		if st != Unknown {
			if st == Sat {
				// Snapshot the model before backtracking erases it.
				s.model = s.model[:0]
				for _, t := range s.assign {
					s.model = append(s.model, t == lit.True)
				}
			}
			s.Backtrack(0)
			return st
		}
		if s.stopReason != budget.None {
			s.Backtrack(0)
			return Unknown
		}
		curRestart++
		s.stats.Restarts++
	}
}

// limitExceeded checks the cumulative budget caps, recording the stop
// reason when one trips.
func (s *Solver) limitExceeded() bool {
	if b := s.opts.Budget.MaxConflicts; b > 0 && s.stats.Conflicts >= b {
		s.stopReason = budget.Conflicts
		return true
	}
	if b := s.opts.Budget.MaxDecisions; b > 0 && s.stats.Decisions >= b {
		s.stopReason = budget.Decisions
		return true
	}
	if s.check != nil {
		if r := s.check.Poll(); r != budget.None {
			s.stopReason = r
			return true
		}
	}
	return false
}

// search runs CDCL until a result, a restart budget of nConflicts, or the
// global conflict budget is exhausted (returning Unknown in both cases).
func (s *Solver) search(nConflicts uint64) Status {
	var conflictsHere uint64
	for {
		confl := s.propagate()
		if confl != crefUndef {
			s.stats.Conflicts++
			conflictsHere++
			if s.DecisionLevel() == 0 {
				s.okay = false
				if s.proof != nil {
					s.proof.addClause(nil)
				}
				return Unsat
			}
			// Amortized budget poll: without it a consecutive-conflict
			// streak never reaches the no-conflict check below and can
			// overshoot the conflict cap/deadline/cancellation arbitrarily.
			// Every 64th conflict keeps the hot loop lean while bounding
			// the overshoot.
			if s.stats.Conflicts&63 == 0 && s.limitExceeded() {
				return Unknown
			}
			learnt, btLevel, lbd := s.analyze(confl)
			if s.proof != nil {
				s.proof.addClause(learnt)
			}
			s.Backtrack(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], crefUndef)
			} else {
				c := s.installLearnt(learnt, lbd)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.stats.Learned++
			s.stats.LearnedLits += uint64(len(learnt))
			s.varDecay()
			s.claDecay()
			continue
		}

		// No conflict.
		if s.limitExceeded() {
			return Unknown
		}
		if conflictsHere >= nConflicts {
			s.Backtrack(s.baseLevel())
			return Unknown // restart
		}
		if s.reduceNeeded() {
			s.reduceDB()
		}

		// Establish assumptions as the first decisions.
		next := lit.UndefLit
		for s.DecisionLevel() < len(s.assumptions) {
			p := s.assumptions[s.DecisionLevel()]
			switch s.LitValue(p) {
			case lit.True:
				s.newDecisionLevel() // dummy level for satisfied assumption
			case lit.False:
				return Unsat
			default:
				next = p
			}
			if next.IsDef() {
				break
			}
		}
		if !next.IsDef() {
			next = s.pickBranchLit()
			if !next.IsDef() {
				return Sat // all variables assigned
			}
			s.stats.Decisions++
		}
		s.Decide(next)
	}
}

// baseLevel is the decision level below which restarts must not backtrack
// (the assumption levels).
func (s *Solver) baseLevel() int {
	if len(s.assumptions) < s.DecisionLevel() {
		return len(s.assumptions)
	}
	return s.DecisionLevel()
}

// reduceNeeded gates DB reduction on the reducible population: core-tier
// clauses are permanent, so only tier2+local count against the cap.
func (s *Solver) reduceNeeded() bool {
	return float64(s.nTier2+s.nLocal) >= s.maxLearnts+float64(len(s.trail))
}

// locked reports whether clause c is the antecedent of a current
// assignment. Reason clauses lead with their propagated literal (an
// invariant propagate maintains for all clauses long enough to be
// reducible), so one variable lookup decides it.
func (s *Solver) locked(c cref) bool {
	v := s.ca.lit(c, 0).Var()
	return s.assign[v] != lit.Unknown && s.reason[v] == c
}

// removeLearnt tombstones a learnt clause: proof deletion, tier and
// footprint bookkeeping, arena waste accounting. Watch lists drop the
// tombstone lazily; garbage collection reclaims the words.
func (s *Solver) removeLearnt(c cref) {
	if s.proof != nil {
		s.tmpLits = s.ca.litsBuf(c, s.tmpLits)
		s.proof.deleteClause(s.tmpLits)
	}
	s.bumpTier(s.ca.tier(c), -1)
	s.learntWords -= uint64(s.ca.words(c))
	s.ca.setDeleted(c)
	s.stats.Reduced++
}

// reduceDB manages the tiered learnt database, Glucose-style:
//
//   - core (LBD ≤ 2, and every binary) is never touched;
//   - tier2 clauses that were used since the previous round keep their
//     protection cleared for the next one; unused tier2 clauses are
//     demoted to local;
//   - the local tier is sorted by activity and its less active half
//     deleted, skipping clauses that are locked (reason of a current
//     assignment) or recently used.
//
// The sort key is (activity, cref) — a total order, so reduction is
// deterministic and the worker-count equivalence suite stays bit-exact.
// Compaction runs afterwards when the tombstoned words pass the arena's
// waste threshold.
func (s *Solver) reduceDB() {
	local := s.reduceBuf[:0]
	for _, c := range s.learnts {
		if s.ca.isDeleted(c) {
			continue
		}
		switch s.ca.tier(c) {
		case tierTwo:
			if s.ca.isUsed(c) {
				s.ca.clearUsed(c)
			} else {
				s.ca.setTier(c, tierLocal)
				s.nTier2--
				s.nLocal++
				s.stats.Demoted++
				local = append(local, c)
			}
		case tierLocal:
			local = append(local, c)
		}
	}
	slices.SortFunc(local, func(a, b cref) int {
		aa, ba := s.ca.activity(a), s.ca.activity(b)
		switch {
		case aa < ba:
			return -1
		case aa > ba:
			return 1
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	})
	s.reduceBuf = local

	limit := len(local) / 2
	removed := 0
	for _, c := range local {
		if removed >= limit {
			break
		}
		if s.ca.isUsed(c) {
			s.ca.clearUsed(c)
			continue
		}
		if s.locked(c) {
			continue
		}
		s.removeLearnt(c)
		removed++
	}
	kept := s.learnts[:0]
	for _, c := range s.learnts {
		if s.ca.isDeleted(c) {
			continue
		}
		kept = append(kept, c)
	}
	s.learnts = kept
	s.maxLearnts *= s.opts.LearntGrowth
	if s.ca.gcNeeded() {
		s.garbageCollect()
	}
}

// Simplify removes problem and learnt clauses satisfied at level 0. Must be
// called at decision level 0. Binary watch lists are swept eagerly (they
// have no lazy-drop path); long watch lists shed tombstones lazily or at
// the compaction this may trigger.
func (s *Solver) Simplify() bool {
	if s.DecisionLevel() != 0 {
		panic("sat: Simplify above level 0")
	}
	if !s.okay {
		return false
	}
	if s.propagate() != crefUndef {
		s.okay = false
		return false
	}
	satisfied := func(c cref) bool {
		for _, w := range s.ca.lits(c) {
			l := lit.Lit(w)
			if s.LitValue(l) == lit.True && s.level[l.Var()] == 0 {
				return true
			}
		}
		return false
	}
	anyDeleted := false
	filter := func(cs []cref, learnt bool) []cref {
		out := cs[:0]
		for _, c := range cs {
			if s.ca.isDeleted(c) {
				continue
			}
			if satisfied(c) {
				if learnt {
					s.bumpTier(s.ca.tier(c), -1)
					s.learntWords -= uint64(s.ca.words(c))
				}
				if s.proof != nil {
					s.tmpLits = s.ca.litsBuf(c, s.tmpLits)
					s.proof.deleteClause(s.tmpLits)
				}
				s.ca.setDeleted(c)
				anyDeleted = true
				continue
			}
			out = append(out, c)
		}
		return out
	}
	s.clauses = filter(s.clauses, false)
	s.learnts = filter(s.learnts, true)
	if anyDeleted {
		for li := range s.binWatches {
			ws := s.binWatches[li]
			out := ws[:0]
			for _, w := range ws {
				if s.ca.isDeleted(cref(w.c)) {
					continue
				}
				out = append(out, w)
			}
			s.binWatches[li] = out
		}
	}
	if s.ca.gcNeeded() {
		s.garbageCollect()
	}
	return true
}
