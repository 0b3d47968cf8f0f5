package core

// Incremental clause groups (Eén/Sörensson-style activation literals).
//
// A persistent enumerator can serve a sequence of targets against one
// fixed circuit encoding: the caller allocates fresh variables with
// NewVar, opens a clause group with BeginGroup, adds the target clauses
// gated on a fresh activation literal act (every group clause contains
// ¬act) with AddGroupClause, enumerates under the assumption act, and
// finally retires the group with RetireGroup(¬act, vars). Retirement is
// the solver's activation-literal protocol (see internal/sat): the unit
// ¬act permanently satisfies every group clause and every learned clause
// derived from one, and Simplify deletes them; learned clauses that never
// mention ¬act stay live across retargetings. Core drops the group's
// clauses from its own occurrence lists, so the residual bookkeeping no
// longer visits them.
//
// Memo soundness across retargeting: a memo entry's signature hashes the
// exact set of (clause, falsified-literal) pairs of the unsatisfied
// clauses. Entries stored while every group clause was already satisfied
// have residuals drawn purely from the permanent circuit clauses and
// stay valid forever. Entries whose residual still contained a live
// group clause (dynUnsat > 0 at store time) are tracked in stepSigs and
// deleted at retirement: after ¬act their clause ids are permanently
// satisfied, so the signature could never be probed again and the entry
// is dead weight.

import (
	"fmt"

	"allsatpre/internal/cnf"
	"allsatpre/internal/lit"
)

// RetireStats reports what RetireGroup removed and kept.
type RetireStats struct {
	// OrigRetired is the number of group clauses retired.
	OrigRetired int
	// LearnedKept / LearnedDropped split the learned-clause database at
	// retirement: dropped clauses were satisfied by the retiring unit,
	// kept ones survive into the next step.
	LearnedKept    int
	LearnedDropped int
	// MemoInvalidated counts memo entries whose residual signature
	// embedded a live group clause and had to be deleted.
	MemoInvalidated int
	// VarsRetired is len(vars) as passed by the caller (activation +
	// selector variables of the group).
	VarsRetired int
}

// MemoSize reports the current number of success-memo entries.
func (e *Enumerator) MemoSize() int { return len(e.memo) }

// LearnedCount reports the solver's live learned-clause count.
func (e *Enumerator) LearnedCount() int {
	st := e.s.Stats()
	return st.LearntsCore + st.LearntsTier2 + st.LearntsLocal
}

// NewVar allocates a fresh variable (for activation literals and
// per-step selectors). The variable is not a projection variable and
// does not enter the BDD manager's order.
func (e *Enumerator) NewVar() lit.Var {
	e.isProj = append(e.isProj, false)
	e.occ = append(e.occ, nil, nil)
	e.occKey = append(e.occKey, nil, nil)
	return e.s.NewVar()
}

// AddClause installs a permanent clause at the root level between
// enumeration calls. It reports false when the addition (or prior state)
// makes the formula UNSAT at the root.
func (e *Enumerator) AddClause(lits ...lit.Lit) bool {
	return e.addDynamic(lits, 0)
}

// BeginGroup opens a new clause group. Only one group may be open at a
// time; it must be closed with RetireGroup before the next BeginGroup.
func (e *Enumerator) BeginGroup() {
	if e.curGroup != 0 {
		panic("core: BeginGroup with a group already open")
	}
	e.nextGroup++
	e.curGroup = e.nextGroup
	e.groupClauses = e.groupClauses[:0]
}

// AddGroupClause installs a clause belonging to the open group. Every
// group clause must contain the negated activation literal that will
// later be passed to RetireGroup, so that the retirement unit satisfies
// it permanently.
func (e *Enumerator) AddGroupClause(lits ...lit.Lit) bool {
	if e.curGroup == 0 {
		panic("core: AddGroupClause without BeginGroup")
	}
	return e.addDynamic(lits, e.curGroup)
}

// addDynamic normalizes and installs one clause at the root, in core's
// clause list and in the solver. Literals the root assignment already
// decides are folded in as a fresh enumerator would see them: a root-true
// literal marks the clause satisfied (at trail position 0 — the root is
// never unwound, so any root position serves), a root-false one folds its
// falsity key into the contribution. Whatever the solver then propagates
// at the root is followed like any other propagation.
func (e *Enumerator) addDynamic(ls []lit.Lit, group int32) bool {
	if e.s.DecisionLevel() != 0 {
		panic("core: clause added above the root level")
	}
	if e.rootUnsat {
		return false
	}
	nc, taut := cnf.Clause(ls).Normalize()
	if taut {
		return true
	}
	for _, l := range nc {
		if int(l.Var()) >= e.s.NumVars() {
			panic(fmt.Sprintf("core: clause literal %v outside formula; call NewVar first", l))
		}
	}
	ci := int32(len(e.orig))
	contrib := clauseBase(ci)
	satPos := int32(-1)
	for _, l := range nc {
		switch e.s.LitValue(l) {
		case lit.True:
			satPos = 0
		case lit.False:
			contrib.xor(falseKey(ci, l))
		}
	}
	e.orig = append(e.orig, nc)
	e.satBy = append(e.satBy, satPos)
	e.contrib = append(e.contrib, contrib)
	e.groupOf = append(e.groupOf, group)
	if satPos < 0 {
		e.unsatCnt++
		e.resid.xor(contrib)
		if group != 0 {
			e.dynUnsat++
		}
	}
	for _, l := range nc {
		e.addOcc(l, ci)
	}
	if group != 0 {
		e.groupClauses = append(e.groupClauses, ci)
	}
	if !e.s.AddClause(nc...) {
		e.rootUnsat = true
		return false
	}
	e.sync()
	return true
}

// RetireGroup closes the open group: unit is the negated activation
// literal (every group clause contains it), vars are the variables
// private to the group (activation + selectors). The unit is added as a
// permanent clause, the group's clauses leave core's occurrence lists,
// the solver's Simplify deletes every clause the unit satisfied (the
// group's and the learned clauses derived from it), and memo entries
// whose residual embedded a live group clause are invalidated. Must be
// called at the root with no enumeration in flight.
func (e *Enumerator) RetireGroup(unit lit.Lit, vars []lit.Var) RetireStats {
	var out RetireStats
	if e.curGroup == 0 {
		panic("core: RetireGroup without an open group")
	}
	if e.s.DecisionLevel() != 0 {
		panic("core: RetireGroup above the root level")
	}
	e.curGroup = 0
	out.VarsRetired = len(vars)
	learned := e.LearnedCount()
	if !e.AddClause(unit) {
		// Root-UNSAT; nothing else can run on this enumerator.
		e.groupClauses = e.groupClauses[:0]
		return out
	}
	for _, ci := range e.groupClauses {
		if e.satBy[ci] < 0 {
			// A group clause without the gating literal — a protocol
			// violation; leave it live rather than unsoundly deleting a
			// constraint.
			continue
		}
		out.OrigRetired++
		for _, l := range e.orig[ci] {
			e.removeOcc(l, ci)
		}
	}
	e.groupClauses = e.groupClauses[:0]
	e.s.Simplify()
	out.LearnedKept = e.LearnedCount()
	out.LearnedDropped = learned - out.LearnedKept
	for _, s := range e.stepSigs {
		if _, ok := e.memo[s]; ok {
			delete(e.memo, s)
			out.MemoInvalidated++
		}
	}
	e.stepSigs = e.stepSigs[:0]
	return out
}

// removeOcc swap-removes clause ci from l's occurrence list and its key
// from the parallel key list. Occurrence order does not influence
// results (sync/backtrack visit all entries), so the in-place shrink is
// safe.
func (e *Enumerator) removeOcc(l lit.Lit, ci int32) {
	occ, keys := e.occ[l], e.occKey[l]
	for i, x := range occ {
		if x == ci {
			last := len(occ) - 1
			occ[i], keys[i] = occ[last], keys[last]
			e.occ[l], e.occKey[l] = occ[:last], keys[:last]
			return
		}
	}
}
