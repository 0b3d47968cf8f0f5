package core

import (
	"math/rand"
	"testing"

	"allsatpre/internal/bdd"
	"allsatpre/internal/cnf"
	"allsatpre/internal/lit"
)

// randTargetClauses builds a small random CNF "target" over the first
// nVars variables: the per-step constraints a reach loop would gate on
// an activation literal.
func randTargetClauses(rng *rand.Rand, nVars int) []cnf.Clause {
	n := 1 + rng.Intn(3)
	out := make([]cnf.Clause, 0, n)
	for i := 0; i < n; i++ {
		w := 1 + rng.Intn(3)
		c := make(cnf.Clause, 0, w)
		for j := 0; j < w; j++ {
			c = append(c, lit.New(lit.Var(rng.Intn(nVars)), rng.Intn(2) == 0))
		}
		out = append(out, c)
	}
	return out
}

// TestIncrementalRetargetMatchesFresh drives one persistent enumerator
// through a sequence of activation-gated targets and checks that every
// step's solution set is bit-identical (as an exported BDD) to a fresh
// enumerator built with the same target clauses added ungated. This is
// the core soundness property the incremental reach engine relies on:
// learned clauses and memo entries carried across RetireGroup must not
// change any later step's solution set.
func TestIncrementalRetargetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7117))
	for iter := 0; iter < 80; iter++ {
		nVars := 4 + rng.Intn(6)
		f := randomFormula(rng, nVars, 1+rng.Intn(3*nVars), 3)
		nProj := 2 + rng.Intn(nVars-1)
		vars := rng.Perm(nVars)[:nProj]
		space := projSpace(vars...)

		inc := New(nil, f.Clone(), space, DefaultOptions())
		steps := 2 + rng.Intn(4)
		for s := 0; s < steps; s++ {
			target := randTargetClauses(rng, nVars)

			// Fresh reference: formula plus the ungated target clauses.
			ff := f.Clone()
			for _, c := range target {
				ff.Add(c.Clone()...)
			}
			fresh := New(nil, ff, space, DefaultOptions())
			want := fresh.Enumerate()

			// Incremental: gate the same clauses on a fresh activation
			// literal and enumerate under it.
			act := inc.NewVar()
			inc.BeginGroup()
			ok := true
			installed := 0
			for _, c := range target {
				if _, taut := c.Normalize(); !taut {
					installed++
				}
				gc := append(cnf.Clause{lit.New(act, true)}, c...)
				ok = inc.AddGroupClause(gc...) && ok
			}
			var got bdd.Ref
			gotUnsat := false
			if !ok {
				gotUnsat = true
			} else {
				sub := inc.EnumerateUnder([]lit.Lit{lit.New(act, false)}, 0)
				switch sub.Status {
				case SubSAT:
					got = sub.Set
				case SubUnsatAssumps, SubGlobalUnsat:
					gotUnsat = true
				default:
					t.Fatalf("iter %d step %d: unexpected status %v", iter, s, sub.Status)
				}
			}
			if gotUnsat {
				if want.Set != bdd.False {
					t.Fatalf("iter %d step %d: incremental UNSAT but fresh has solutions", iter, s)
				}
			} else {
				wantHere := inc.man.Import(fresh.man.Export(want.Set))
				if got != wantHere {
					t.Fatalf("iter %d step %d: incremental set differs from fresh", iter, s)
				}
			}

			rs := inc.RetireGroup(lit.New(act, true), []lit.Var{act})
			if rs.VarsRetired != 1 {
				t.Fatalf("iter %d step %d: VarsRetired = %d", iter, s, rs.VarsRetired)
			}
			if !gotUnsat && rs.OrigRetired != installed {
				t.Fatalf("iter %d step %d: OrigRetired = %d, want %d",
					iter, s, rs.OrigRetired, installed)
			}
			if rs.LearnedKept != inc.LearnedCount() {
				t.Fatalf("iter %d step %d: LearnedKept %d != live learned %d",
					iter, s, rs.LearnedKept, inc.LearnedCount())
			}
			if inc.rootUnsat {
				// Retirement cannot make the base formula UNSAT (act is
				// fresh and the gated clauses are satisfied by ¬act).
				t.Fatalf("iter %d step %d: root UNSAT after retirement", iter, s)
			}
		}
	}
}

// TestIncrementalAddClausePermanent checks that AddClause between steps
// behaves like a clause present from construction.
func TestIncrementalAddClausePermanent(t *testing.T) {
	rng := rand.New(rand.NewSource(9119))
	for iter := 0; iter < 60; iter++ {
		nVars := 4 + rng.Intn(5)
		f := randomFormula(rng, nVars, 1+rng.Intn(2*nVars), 3)
		extra := randTargetClauses(rng, nVars)
		space := projSpace(rng.Perm(nVars)[:2+rng.Intn(nVars-1)]...)

		ff := f.Clone()
		for _, c := range extra {
			ff.Add(c.Clone()...)
		}
		fresh := New(nil, ff, space, DefaultOptions())
		want := fresh.Enumerate()

		inc := New(nil, f.Clone(), space, DefaultOptions())
		// Force root preparation and some prior search state.
		_ = inc.EnumerateUnder(nil, 0)
		ok := true
		for _, c := range extra {
			ok = inc.AddClause(c...) && ok
		}
		if !ok {
			if want.Set != bdd.False {
				t.Fatalf("iter %d: AddClause reported UNSAT but fresh has solutions", iter)
			}
			continue
		}
		sub := inc.EnumerateUnder(nil, 0)
		if sub.Status == SubGlobalUnsat {
			if want.Set != bdd.False {
				t.Fatalf("iter %d: incremental UNSAT but fresh has solutions", iter)
			}
			continue
		}
		wantHere := inc.man.Import(fresh.man.Export(want.Set))
		if sub.Set != wantHere {
			t.Fatalf("iter %d: post-AddClause set differs from fresh", iter)
		}
	}
}

// TestRetireGroupMemoInvalidation stores memo entries while a group
// clause is live in the residual and checks they are dropped at
// retirement while circuit-only entries survive.
func TestRetireGroupMemoInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(515))
	sawInvalidation := false
	sawSurvivor := false
	for iter := 0; iter < 120 && !(sawInvalidation && sawSurvivor); iter++ {
		nVars := 5 + rng.Intn(5)
		f := randomFormula(rng, nVars, 2+rng.Intn(3*nVars), 3)
		space := projSpace(rng.Perm(nVars)[:3]...)
		inc := New(nil, f.Clone(), space, DefaultOptions())
		for s := 0; s < 3; s++ {
			act := inc.NewVar()
			inc.BeginGroup()
			ok := true
			for _, c := range randTargetClauses(rng, nVars) {
				ok = inc.AddGroupClause(append(cnf.Clause{lit.New(act, true)}, c...)...) && ok
			}
			if ok {
				_ = inc.EnumerateUnder([]lit.Lit{lit.New(act, false)}, 0)
			}
			before := inc.MemoSize()
			rs := inc.RetireGroup(lit.New(act, true), []lit.Var{act})
			if inc.MemoSize() != before-rs.MemoInvalidated {
				t.Fatalf("iter %d step %d: memo size %d→%d but MemoInvalidated=%d",
					iter, s, before, inc.MemoSize(), rs.MemoInvalidated)
			}
			if rs.MemoInvalidated > 0 {
				sawInvalidation = true
			}
			if inc.MemoSize() > 0 {
				sawSurvivor = true
			}
			if len(inc.stepSigs) != 0 {
				t.Fatalf("iter %d step %d: stepSigs not cleared", iter, s)
			}
		}
	}
	if !sawInvalidation {
		t.Error("no run ever invalidated a memo entry; test is vacuous")
	}
	if !sawSurvivor {
		t.Error("no memo entry ever survived retirement; retention untested")
	}
}

// TestGroupProtocolPanics pins the misuse panics.
func TestGroupProtocolPanics(t *testing.T) {
	f := cnf.New(2)
	f.Add(lit.New(0, false), lit.New(1, false))
	e := New(nil, f, projSpace(0, 1), DefaultOptions())
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("AddGroupClause without BeginGroup", func() {
		e.AddGroupClause(lit.New(0, false))
	})
	mustPanic("RetireGroup without group", func() {
		e.RetireGroup(lit.New(0, true), nil)
	})
	e.BeginGroup()
	mustPanic("nested BeginGroup", func() { e.BeginGroup() })
}
