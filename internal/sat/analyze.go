package sat

import (
	"allsatpre/internal/lit"
)

// fixBinaryReason restores the reason invariant for binary clauses: long
// clauses always lead with their propagated literal (propagate swaps it
// into position 0), but binary propagation fires straight off the watch
// list without touching clause memory, so a binary reason may still store
// its literals in attach order. Analysis walks reasons as lits[1:], so
// swap the propagated literal to the front on first dereference.
func (s *Solver) fixBinaryReason(c cref, p lit.Lit) {
	ls := s.ca.lits(c)
	if len(ls) == 2 && lit.Lit(ls[0]).Var() != p.Var() {
		ls[0], ls[1] = ls[1], ls[0]
	}
}

// useLearnt records that a learnt clause participated in conflict
// analysis: bump its activity, set the recently-used protection bit, and
// recompute its LBD from current levels — if the clause has become
// "gluier" it is promoted to the better tier (Glucose's dynamic LBD
// update), which is how a lucky local clause earns permanence.
func (s *Solver) useLearnt(c cref) {
	s.claBump(c)
	s.ca.setUsed(c)
	d := s.computeLBDWords(s.ca.lits(c))
	if d < s.ca.lbd(c) {
		s.ca.setLBD(c, d)
		t := tierFor(s.ca.size(c), d)
		if cur := s.ca.tier(c); t < cur {
			s.ca.setTier(c, t)
			s.bumpTier(cur, -1)
			s.bumpTier(t, 1)
			s.stats.Promoted++
		}
	}
}

// analyze performs first-UIP conflict analysis starting from the
// conflicting clause, returning the learnt clause (asserting literal first)
// and the backtrack level. It also computes the clause's LBD. The returned
// slice is a reused scratch buffer, valid until the next analyze call —
// installLearnt copies it into the arena, so nothing long-lived aliases it.
func (s *Solver) analyze(confl cref) (learnt []lit.Lit, btLevel, lbd int) {
	learnt = append(s.learntBuf[:0], lit.UndefLit) // room for the asserting literal
	pathC := 0
	var p lit.Lit = lit.UndefLit
	idx := len(s.trail) - 1

	for {
		if s.ca.isLearnt(confl) {
			s.useLearnt(confl)
		}
		ls := s.ca.lits(confl)
		start := 0
		if p.IsDef() {
			start = 1 // skip the asserting literal of the reason
		}
		for _, w := range ls[start:] {
			q := lit.Lit(w)
			v := q.Var()
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			s.seen[v] = 1
			s.varBump(v)
			if s.level[v] >= s.DecisionLevel() {
				pathC++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select next literal on the trail to expand.
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = 0
		pathC--
		if pathC <= 0 {
			break
		}
		confl = s.reason[p.Var()]
		if confl == crefUndef {
			panic("sat: analyze reached a decision before the UIP")
		}
		s.fixBinaryReason(confl, p)
	}
	learnt[0] = p.Not()

	// Clause minimization: delete literals implied by the rest.
	s.analyzeToClr = append(s.analyzeToClr[:0], learnt...)
	abstractLevels := uint32(0)
	for _, q := range learnt[1:] {
		abstractLevels |= s.abstractLevel(q.Var())
	}
	j := 1
	for i := 1; i < len(learnt); i++ {
		q := learnt[i]
		if s.reason[q.Var()] == crefUndef || !s.litRedundant(q, abstractLevels) {
			learnt[j] = q
			j++
		} else {
			s.stats.MinimizedOut++
		}
	}
	learnt = learnt[:j]
	// Clear seen flags set during analysis & minimization.
	for _, q := range s.analyzeToClr {
		s.seen[q.Var()] = 0
	}

	// Find backtrack level: the highest level among learnt[1:].
	btLevel = 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level[learnt[1].Var()]
	}

	s.learntBuf = learnt
	return learnt, btLevel, s.computeLBD(learnt)
}

// computeLBD counts the distinct decision levels among the literals using
// a generation-stamped scratch array: one conflict bumps the generation,
// so clearing is free and the hot path allocates nothing (the map this
// replaces cost one allocation plus hashing per conflict — see
// BenchmarkAnalyzeLBD).
func (s *Solver) computeLBD(lits []lit.Lit) (lbd int) {
	s.lbdGen++
	if s.lbdGen == 0 {
		// Generation counter wrapped: wipe stale stamps so marks from
		// 2^32 conflicts ago cannot read as current.
		for i := range s.lbdStamp {
			s.lbdStamp[i] = 0
		}
		s.lbdGen = 1
	}
	for _, q := range lits {
		lvl := s.level[q.Var()]
		if lvl >= len(s.lbdStamp) {
			// Levels are bounded by the variable count; grow once to the
			// current need and amortize like any scratch slice.
			s.lbdStamp = append(s.lbdStamp, make([]uint32, lvl+1-len(s.lbdStamp))...)
		}
		if s.lbdStamp[lvl] != s.lbdGen {
			s.lbdStamp[lvl] = s.lbdGen
			lbd++
		}
	}
	return lbd
}

// computeLBDWords is computeLBD over a clause's raw arena words, used for
// the LBD recomputation on use without materializing a []lit.Lit.
func (s *Solver) computeLBDWords(words []uint32) (lbd int) {
	s.lbdGen++
	if s.lbdGen == 0 {
		for i := range s.lbdStamp {
			s.lbdStamp[i] = 0
		}
		s.lbdGen = 1
	}
	for _, w := range words {
		lvl := s.level[lit.Lit(w).Var()]
		if lvl >= len(s.lbdStamp) {
			s.lbdStamp = append(s.lbdStamp, make([]uint32, lvl+1-len(s.lbdStamp))...)
		}
		if s.lbdStamp[lvl] != s.lbdGen {
			s.lbdStamp[lvl] = s.lbdGen
			lbd++
		}
	}
	return lbd
}

func (s *Solver) abstractLevel(v lit.Var) uint32 {
	return 1 << uint(s.level[v]&31)
}

// litRedundant checks whether literal q is implied by the other literals of
// the learnt clause (marked seen) through the implication graph; such
// literals may be removed (recursive clause minimization).
func (s *Solver) litRedundant(q lit.Lit, abstractLevels uint32) bool {
	s.analyzeStack = s.analyzeStack[:0]
	s.analyzeStack = append(s.analyzeStack, q)
	top := len(s.analyzeToClr)
	for len(s.analyzeStack) > 0 {
		p := s.analyzeStack[len(s.analyzeStack)-1]
		s.analyzeStack = s.analyzeStack[:len(s.analyzeStack)-1]
		c := s.reason[p.Var()]
		s.fixBinaryReason(c, p)
		for _, w := range s.ca.lits(c)[1:] {
			l := lit.Lit(w)
			v := l.Var()
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			if s.reason[v] == crefUndef || s.abstractLevel(v)&abstractLevels == 0 {
				// Cannot be resolved away: q is not redundant. Undo marks.
				for _, x := range s.analyzeToClr[top:] {
					s.seen[x.Var()] = 0
				}
				s.analyzeToClr = s.analyzeToClr[:top]
				return false
			}
			s.seen[v] = 1
			s.analyzeStack = append(s.analyzeStack, l)
			s.analyzeToClr = append(s.analyzeToClr, l)
		}
	}
	return true
}
