package simplify

import (
	"testing"

	"allsatpre/internal/cnf"
	"allsatpre/internal/lit"
)

// FuzzRunFrozen checks the projection-safe contract of RunFrozen against
// brute force on small formulas (at most 16 variables and 24 clauses).
// Bit v of mask freezes variable v. The pass must keep the frozen
// projection of the model set, report Unsat only for an unsatisfiable
// input, and Extend every model of the simplified formula into a model
// of the original.
func FuzzRunFrozen(f *testing.F) {
	f.Add("p cnf 3 3\n1 0\n-1 2 0\n-2 3 0\n", uint16(0))
	f.Add("p cnf 2 2\n1 0\n-1 0\n", uint16(1))
	f.Add("p cnf 4 2\n1 -1 0\n2 3 4 0\n", uint16(0b0101))
	// A subsumed clause plus a unit implied through a non-frozen variable.
	f.Add("c proj 1 2 3\np cnf 4 4\n1 2 0\n1 2 3 0\n4 0\n-4 1 0\n", uint16(0b0111))
	f.Fuzz(func(t *testing.T, src string, mask uint16) {
		orig, _, err := cnf.ParseDimacsString(src)
		if err != nil || orig.NumVars > 16 || len(orig.Clauses) > 24 {
			return
		}
		var frozen []lit.Var
		for v := 0; v < orig.NumVars; v++ {
			if mask>>v&1 == 1 {
				frozen = append(frozen, lit.Var(v))
			}
		}
		g := orig.Clone()
		res := RunFrozen(g, frozen)
		before := orig.ProjectedModels(frozen)
		if res.Unsat {
			if len(before) != 0 {
				t.Fatalf("RunFrozen claimed UNSAT for a satisfiable formula\n%s", cnf.DimacsString(orig, nil))
			}
			return
		}
		after := g.ProjectedModels(frozen)
		if len(after) != len(before) {
			t.Fatalf("frozen projection changed: %d -> %d assignments\n%s", len(before), len(after),
				cnf.DimacsString(orig, nil))
		}
		for p := range before {
			if !after[p] {
				t.Fatalf("frozen projection lost %s\n%s", p, cnf.DimacsString(orig, nil))
			}
		}
		assign := make([]lit.Tern, orig.NumVars)
		g.EnumerateModels(func(model []bool) {
			for i, b := range res.Extend(append([]bool(nil), model...)) {
				assign[i] = lit.TernOf(b)
			}
			if !orig.Satisfied(assign) {
				t.Fatalf("Extend(%v) does not satisfy the original\n%s", model, cnf.DimacsString(orig, nil))
			}
		})
	})
}
