package core

import (
	"allsatpre/internal/allsat"
	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/lit"
)

// SubStatus classifies the outcome of one EnumerateUnder call. The
// distinction between SubUnsatAssumps and SubGlobalUnsat is the
// assumption-aware final-conflict path: a conflict while asserting
// assumptions means only that this subcube is empty, while a root-level
// conflict (no assumptions involved) means the whole formula is UNSAT.
type SubStatus uint8

const (
	// SubSAT: the enumeration under the assumptions completed; Set holds
	// the solutions (possibly the empty set — consistent assumptions with
	// no models are still SubSAT, not UNSAT of anything).
	SubSAT SubStatus = iota
	// SubUnsatAssumps: the assumptions conflict with the formula. Failed
	// holds a subset of the assumptions sufficient for the conflict; any
	// other subcube containing that subset is empty too.
	SubUnsatAssumps
	// SubGlobalUnsat: the formula is UNSAT at the root, independent of any
	// assumptions.
	SubGlobalUnsat
	// SubSplit: the per-call decision cap tripped before the subcube was
	// exhausted. No solutions are reported; the caller should split the
	// subcube and retry the halves (pre-cap memo entries are retained, so
	// the halves re-derive only the frontier).
	SubSplit
)

func (s SubStatus) String() string {
	switch s {
	case SubSAT:
		return "sat"
	case SubUnsatAssumps:
		return "unsat-assumptions"
	case SubGlobalUnsat:
		return "unsat-global"
	case SubSplit:
		return "split"
	}
	return "unknown"
}

// SubResult is the outcome of enumerating one assumption subcube.
type SubResult struct {
	// Set is the solution BDD over the projection variables, including the
	// assumption literals themselves (so disjoint subcubes yield disjoint
	// sets whose union is the full solution set). Valid for SubSAT; False
	// otherwise.
	Set bdd.Ref
	// Status classifies the outcome.
	Status SubStatus
	// Failed, for SubUnsatAssumps, is a subset of the assumptions whose
	// conjunction is already inconsistent with the formula. It may be
	// empty when the inconsistency involves no assumption at all (a
	// learned clause falsified at the root), in which case every subcube
	// is empty.
	Failed []lit.Lit
	// Stats holds the search counters spent by this call only.
	Stats allsat.Stats
	// Aborted is true when a resource budget tripped mid-call; Set is then
	// a sound under-approximation of the subcube's solutions.
	Aborted bool
	Reason  budget.Reason
}

// EnumerateUnder enumerates the solutions inside the subcube described by
// assumps (projection literals, typically a guiding-path prefix). Each
// assumption is asserted at its own decision level — not at the root — so
// learned clauses remain implied by the formula alone and stay sound when
// the same enumerator is reused for the next subcube; the memo table is
// likewise shared across calls, because the residual signature is
// oblivious to how the current partial assignment was reached.
//
// callMaxDecisions, when non-zero, is a soft per-call cap: exceeding it
// abandons the call with SubSplit so the caller can split the subcube
// into halves, bounding the work granularity for dynamic load balancing.
//
// On return the trail is restored to the root, whatever the outcome.
func (e *Enumerator) EnumerateUnder(assumps []lit.Lit, callMaxDecisions uint64) SubResult {
	if e.check == nil && !e.opts.Budget.IsZero() {
		e.check = e.opts.Budget.Start()
	}
	before := e.Stats()
	out := SubResult{Set: bdd.False}
	base := e.s.DecisionLevel()
	finish := func() SubResult {
		e.backtrack(base)
		out.Stats = statsDelta(e.Stats(), before)
		out.Aborted = e.aborted
		out.Reason = e.abortReason
		return out
	}
	// Poll once per call: a subcube can resolve through assumptions and
	// BCP alone, without a single decision, so without this a pooled run
	// over easy subcubes would never observe a deadline or cancellation.
	if e.check != nil && !e.aborted {
		if r := e.check.Poll(); r != budget.None {
			e.abort(r)
		}
	}
	if e.aborted {
		return finish()
	}
	if e.rootUnsat {
		out.Status = SubGlobalUnsat
		return finish()
	}
	// Every open level is an assumption until enumeration starts, so the
	// solver's final-conflict analysis yields failed assumptions.
	for _, a := range assumps {
		switch e.s.LitValue(a) {
		case lit.True:
			continue // already implied
		case lit.False:
			out.Status = SubUnsatAssumps
			out.Failed = e.s.Failed(a)
			return finish()
		}
		if !e.decide(a) {
			e.stats.Conflicts++
			out.Status = SubUnsatAssumps
			out.Failed = e.s.Failed(lit.UndefLit)
			return finish()
		}
	}
	e.callBaseDec = e.stats.Decisions
	e.callMaxDec = callMaxDecisions
	set := e.enumerate()
	e.callMaxDec = 0
	if e.splitReq && !e.aborted {
		e.splitReq = false
		out.Status = SubSplit
		return finish()
	}
	e.splitReq = false
	if set != bdd.False {
		// Fold in every projection literal on the trail: root units, the
		// assumptions themselves, and everything they implied. Root
		// literals are folded into every subcube's set; the merge is an Or,
		// and (A∧r)∨(B∧r) = (A∨B)∧r, so the union matches the sequential
		// result exactly.
		for _, l := range e.s.Trail() {
			if e.isProj[l.Var()] {
				set = e.man.And(set, e.man.Lit(l))
			}
		}
	}
	out.Set = set
	out.Status = SubSAT
	return finish()
}

// Manager exposes the enumerator's BDD manager so callers of
// EnumerateUnder can export per-subcube sets.
func (e *Enumerator) Manager() *bdd.Manager { return e.man }

// Stats returns a copy of the accumulated search counters, with the
// propagation count read from the solver.
func (e *Enumerator) Stats() allsat.Stats {
	st := e.stats
	st.Propagations = e.s.Stats().Propagations
	return st
}

// statsDelta subtracts the monotone search counters, yielding the cost of
// one call. BDDNodes and Kernel are per-manager gauges, not counters, and
// are reported separately by the pool at worker teardown.
func statsDelta(after, before allsat.Stats) allsat.Stats {
	return allsat.Stats{
		Solutions:    after.Solutions - before.Solutions,
		Cubes:        after.Cubes - before.Cubes,
		LiftedFree:   after.LiftedFree - before.LiftedFree,
		Decisions:    after.Decisions - before.Decisions,
		Propagations: after.Propagations - before.Propagations,
		Conflicts:    after.Conflicts - before.Conflicts,
		CacheLookups: after.CacheLookups - before.CacheLookups,
		CacheHits:    after.CacheHits - before.CacheHits,
		CacheClears:  after.CacheClears - before.CacheClears,

		BlockingClauses: after.BlockingClauses - before.BlockingClauses,
		BlockingLits:    after.BlockingLits - before.BlockingLits,
	}
}
