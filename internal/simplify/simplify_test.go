package simplify

import (
	"fmt"
	"math/rand"
	"testing"

	"allsatpre/internal/cnf"
	"allsatpre/internal/lit"
)

// randomFormula builds a small random 1..4-CNF over n variables.
func randomFormula(rng *rand.Rand, n, clauses int) *cnf.Formula {
	f := cnf.New(n)
	for i := 0; i < clauses; i++ {
		width := 1 + rng.Intn(4)
		c := make(cnf.Clause, 0, width)
		for j := 0; j < width; j++ {
			v := lit.Var(rng.Intn(n))
			c = append(c, lit.New(v, rng.Intn(2) == 1))
		}
		f.AddClause(c)
	}
	return f
}

// frozenSubset picks a random frozen set of size k and returns it as a
// predicate plus the ordered variable list.
func frozenSubset(rng *rand.Rand, n, k int) (func(lit.Var) bool, []lit.Var) {
	perm := rng.Perm(n)
	set := make(map[lit.Var]bool, k)
	vars := make([]lit.Var, 0, k)
	for _, i := range perm[:k] {
		set[lit.Var(i)] = true
	}
	for v := 0; v < n; v++ {
		if set[lit.Var(v)] {
			vars = append(vars, lit.Var(v))
		}
	}
	return func(v lit.Var) bool { return set[v] }, vars
}

// TestProjectionEquivalenceRandom is the core soundness property: for a
// random formula and a random frozen set, the projection of the solution
// set onto the frozen variables is identical before and after Run.
func TestProjectionEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(8)
		f := randomFormula(rng, n, 2+rng.Intn(3*n))
		frozen, fvars := frozenSubset(rng, n, 1+rng.Intn(n))
		orig := f.Clone()
		want := orig.ProjectedModels(fvars)

		res := Run(f, frozen, Options{})
		if f.NumVars != n {
			t.Fatalf("trial %d: NumVars changed %d -> %d", trial, n, f.NumVars)
		}
		got := f.ProjectedModels(fvars)
		if res.Unsat && len(want) != 0 {
			t.Fatalf("trial %d: claimed Unsat but original has %d projected models", trial, len(want))
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: projected model count %d != %d\norig: %v\nsimp: %v",
				trial, len(got), len(want), orig, f)
		}
		for m := range want {
			if !got[m] {
				t.Fatalf("trial %d: projected model %s lost", trial, m)
			}
		}
	}
}

// TestExtendReconstruction checks the elimination stack: every model of
// the simplified formula extends to a total model of the original.
func TestExtendReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(8)
		f := randomFormula(rng, n, 2+rng.Intn(3*n))
		frozen, _ := frozenSubset(rng, n, rng.Intn(n+1))
		orig := f.Clone()

		res := Run(f, frozen, Options{})
		if res.Unsat {
			if orig.CountModels() != 0 {
				t.Fatalf("trial %d: claimed Unsat but original satisfiable", trial)
			}
			continue
		}
		assign := make([]lit.Tern, n)
		checked := 0
		f.EnumerateModels(func(model []bool) {
			if checked >= 64 {
				return
			}
			checked++
			total := res.Extend(append([]bool(nil), model...))
			for i, b := range total {
				assign[i] = lit.TernOf(b)
			}
			if !orig.Satisfied(assign) {
				t.Fatalf("trial %d: extended model %v does not satisfy original\norig: %v\nsimp: %v\nstack: %+v",
					trial, total, orig, f, res.stack)
			}
		})
	}
}

// TestFrozenVarsSurvive pins the frozen-set contract: frozen variables
// are never eliminated and never carry reconstruction records, even when
// they are the perfect BVE candidates (definitional equivalences). The
// contract holds for a predicate (Run) and for variable lists
// (RunFrozen, which ignores ids past f.NumVars).
func TestFrozenVarsSurvive(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(f *cnf.Formula) *Result
	}{
		{"Run", func(f *cnf.Formula) *Result {
			return Run(f, func(v lit.Var) bool { return v == 0 || v == 3 }, Options{})
		}},
		{"RunFrozen", func(f *cnf.Formula) *Result {
			return RunFrozen(f, []lit.Var{0}, []lit.Var{3, 99})
		}},
	} {
		// Chain of equivalences x0 = x1 = x2 = x3; every var occurs twice
		// per phase, so unfrozen BVE would collapse the chain entirely.
		f := cnf.New(4)
		for v := 0; v < 3; v++ {
			f.Add(lit.Neg(lit.Var(v)), lit.Pos(lit.Var(v+1)))
			f.Add(lit.Pos(lit.Var(v)), lit.Neg(lit.Var(v+1)))
		}
		res := tc.run(f)
		for _, v := range []lit.Var{0, 3} {
			if res.Eliminated(v) {
				t.Fatalf("%s: frozen var %v was eliminated", tc.name, v)
			}
		}
		if res.Stats.VarsEliminated == 0 {
			t.Fatalf("%s: expected the middle of the chain to be eliminated, stats: %+v", tc.name, res.Stats)
		}
		// x0 and x3 must still be constrained to be equal.
		want := map[string]bool{"00": true, "11": true}
		got := f.ProjectedModels([]lit.Var{0, 3})
		if len(got) != len(want) {
			t.Fatalf("%s: projection onto frozen vars changed: %v", tc.name, got)
		}
		for m := range want {
			if !got[m] {
				t.Fatalf("%s: frozen projection lost %s: %v", tc.name, m, got)
			}
		}
	}
}

// TestFrozenUnitsReemitted: a unit fixing a frozen variable must survive
// in the output formula so downstream enumeration engines see it.
func TestFrozenUnitsReemitted(t *testing.T) {
	f := cnf.New(3)
	f.Add(lit.Pos(0))
	f.Add(lit.Neg(0), lit.Pos(1))
	f.Add(lit.Neg(1), lit.Pos(2))
	frozen := func(v lit.Var) bool { return v == 0 }
	Run(f, frozen, Options{})
	found := false
	for _, c := range f.Clauses {
		if len(c) == 1 && c[0] == lit.Pos(0) {
			found = true
		}
	}
	if !found {
		t.Fatalf("unit on frozen var 0 not re-emitted: %v", f)
	}
	got := f.ProjectedModels([]lit.Var{0})
	if len(got) != 1 || !got["1"] {
		t.Fatalf("frozen projection wrong: %v", got)
	}
}

// TestUnsat: a contradiction must be detected and the formula rewritten
// to a single empty clause with NumVars preserved.
func TestUnsat(t *testing.T) {
	f := cnf.New(2)
	f.Add(lit.Pos(0))
	f.Add(lit.Neg(0), lit.Pos(1))
	f.Add(lit.Neg(1))
	res := Run(f, func(lit.Var) bool { return false }, Options{})
	if !res.Unsat {
		t.Fatalf("expected Unsat, stats: %+v", res.Stats)
	}
	if f.NumVars != 2 || len(f.Clauses) != 1 || len(f.Clauses[0]) != 0 {
		t.Fatalf("unsat rewrite wrong: NumVars=%d clauses=%v", f.NumVars, f.Clauses)
	}
}

// TestSubsumptionAndStrengthening exercises the occurrence-index passes
// directly.
func TestSubsumptionAndStrengthening(t *testing.T) {
	f := cnf.New(4)
	f.Add(lit.Pos(0), lit.Pos(1))                // c0
	f.Add(lit.Pos(0), lit.Pos(1), lit.Pos(2))    // subsumed by c0
	f.Add(lit.Neg(0), lit.Pos(1), lit.Pos(3))    // self-subsumed by c0 on x0 -> (x1 x3)
	frozen := func(lit.Var) bool { return true } // isolate subsumption from BVE
	res := Run(f, frozen, Options{NoProbing: true, MaxRounds: 2, MaxOccur: 1})
	if res.Stats.ClausesSubsumed == 0 {
		t.Fatalf("expected subsumption, stats: %+v", res.Stats)
	}
	if res.Stats.LitsStrengthened == 0 {
		t.Fatalf("expected self-subsuming strengthening, stats: %+v", res.Stats)
	}
	// Semantic check over all vars (all frozen => full equivalence).
	vars := []lit.Var{0, 1, 2, 3}
	orig := cnf.New(4)
	orig.Add(lit.Pos(0), lit.Pos(1))
	orig.Add(lit.Pos(0), lit.Pos(1), lit.Pos(2))
	orig.Add(lit.Neg(0), lit.Pos(1), lit.Pos(3))
	want := orig.ProjectedModels(vars)
	got := f.ProjectedModels(vars)
	if len(want) != len(got) {
		t.Fatalf("model sets differ: %d vs %d", len(want), len(got))
	}
}

// TestProbing: x2 is entailed through the chain (¬x0 ∨ x2) ∧ (x0 ∨ x1) ∧
// (¬x1 ∨ x2) — no clause pair admits self-subsuming resolution, so only
// failed-literal probing of ¬x2 (whose BCP derives ¬x0, x1, conflict)
// exposes the unit. NoProbing must turn probing off even when every other
// option is left at its default.
func TestProbing(t *testing.T) {
	build := func() *cnf.Formula {
		f := cnf.New(3)
		f.Add(lit.Neg(0), lit.Pos(2))
		f.Add(lit.Pos(0), lit.Pos(1))
		f.Add(lit.Neg(1), lit.Pos(2))
		return f
	}
	frozen := func(lit.Var) bool { return true }
	f := build()
	res := Run(f, frozen, Options{MaxOccur: 1})
	if res.Stats.ProbeFailures == 0 {
		t.Fatalf("expected a failed literal, stats: %+v", res.Stats)
	}
	got := f.ProjectedModels([]lit.Var{2})
	if len(got) != 1 || !got["1"] {
		t.Fatalf("probing failed to fix x2: %v", got)
	}
	if res := Run(build(), frozen, Options{NoProbing: true}); res.Stats.Probes != 0 {
		t.Fatalf("NoProbing still probed, stats: %+v", res.Stats)
	}
}

// TestPureLiteralElimination: a variable occurring in one phase only is
// eliminated with zero resolvents.
func TestPureLiteralElimination(t *testing.T) {
	f := cnf.New(3)
	f.Add(lit.Pos(0), lit.Pos(2))
	f.Add(lit.Pos(1), lit.Pos(2))
	frozen := func(v lit.Var) bool { return v != 2 }
	res := Run(f, frozen, Options{NoProbing: true})
	if res.Stats.VarsEliminated != 1 {
		t.Fatalf("expected pure-literal elimination of x2, stats: %+v", res.Stats)
	}
	if len(f.Clauses) != 0 {
		t.Fatalf("expected empty simplified formula, got %v", f.Clauses)
	}
	// Extend must still produce a model of the original.
	total := res.Extend(make([]bool, 3))
	assign := make([]lit.Tern, 3)
	for i, b := range total {
		assign[i] = lit.TernOf(b)
	}
	orig := cnf.New(3)
	orig.Add(lit.Pos(0), lit.Pos(2))
	orig.Add(lit.Pos(1), lit.Pos(2))
	if !orig.Satisfied(assign) {
		t.Fatalf("extended model %v does not satisfy original", total)
	}
}

// TestDeterminism: two runs over clones produce identical output clause
// lists and stats.
func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(8)
		f1 := randomFormula(rng, n, 3*n)
		f2 := f1.Clone()
		frozen, _ := frozenSubset(rng, n, 1+rng.Intn(n/2+1))
		r1 := Run(f1, frozen, Options{})
		r2 := Run(f2, frozen, Options{})
		if fmt.Sprint(f1.Clauses) != fmt.Sprint(f2.Clauses) {
			t.Fatalf("trial %d: nondeterministic output\n%v\n%v", trial, f1.Clauses, f2.Clauses)
		}
		if r1.Stats != r2.Stats {
			t.Fatalf("trial %d: nondeterministic stats\n%+v\n%+v", trial, r1.Stats, r2.Stats)
		}
	}
}

// TestModeEnabled pins the tri-state resolution.
func TestModeEnabled(t *testing.T) {
	if !Auto.Enabled(true) || Auto.Enabled(false) {
		t.Fatal("Auto must follow the default")
	}
	if !On.Enabled(false) || Off.Enabled(true) {
		t.Fatal("On/Off must override the default")
	}
	if Auto.String() != "auto" || On.String() != "on" || Off.String() != "off" {
		t.Fatal("Mode.String mismatch")
	}
}
