package preimage

// The projection-safe preprocessor on real transition instances: the
// frozen projection variables must never be eliminated, and witnesses
// must extend to models of the original formula. That the pass leaves
// every engine's state set unchanged is the oracle's check
// (oracle_test.go), which runs every cell with Simplify on and off.

import (
	"math/rand"
	"testing"

	"allsatpre/internal/gen"
	"allsatpre/internal/lit"
	"allsatpre/internal/sat"
	"allsatpre/internal/simplify"
	"allsatpre/internal/trans"
)

// TestSimplifyFrozenProjectionVarsSurvive is the frozen-set regression:
// on a real transition instance with every projection-relevant variable
// frozen (state, input, next-state), the pass may eliminate only
// auxiliary Tseitin variables, and frozen variables fixed by the target
// constraint must come back as re-emitted unit clauses, not disappear.
func TestSimplifyFrozenProjectionVarsSurvive(t *testing.T) {
	c := gen.SLike(gen.SLikeParams{Seed: 3, Inputs: 6, Latches: 6, Gates: 80})
	// A single target cube with four fixed positions: after constraint
	// propagation those next-state variables are forced, i.e. frozen AND
	// fixed. (A fully fixed cube would make this instance UNSAT — that
	// state has an empty preimage — which proves nothing here.)
	pattern := "10XX01"
	target := trans.TargetFromPatterns(6, pattern)
	inst, err := trans.NewInstance(c, target)
	if err != nil {
		t.Fatal(err)
	}
	frozen := make(map[lit.Var]bool)
	for _, vs := range [][]lit.Var{inst.StateVars, inst.InputVars, inst.NextVars} {
		for _, v := range vs {
			frozen[v] = true
		}
	}
	res := simplify.Run(inst.F, func(v lit.Var) bool { return frozen[v] }, simplify.Options{})
	if res.Stats.VarsEliminated == 0 {
		t.Fatal("the pass eliminated nothing on an 80-gate instance — the regression is vacuous")
	}
	for v := range frozen {
		if res.Eliminated(v) {
			t.Fatalf("frozen projection variable %d was eliminated", v)
		}
	}
	// Every forced next-state variable must survive as a unit clause so
	// downstream solvers still see the target constraint.
	for i, v := range inst.NextVars {
		if pattern[i] == 'X' {
			continue
		}
		want := lit.New(v, pattern[i] == '0')
		found := false
		for _, cl := range inst.F.Clauses {
			if len(cl) == 1 && cl[0] == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("unit %v for forced frozen next-state var %d not re-emitted", want, v)
		}
	}
}

// TestSimplifyWitnessReconstructionGenCircuits is the witness property
// test on real circuit CNFs: for randomized generated circuits, any
// model of the simplified transition formula extended through the
// elimination stack must be a total model of the original formula. The
// runs diversify the models with random assumption cubes over the frozen
// state variables.
func TestSimplifyWitnessReconstructionGenCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	suite := []gen.NamedCircuit{
		{Name: "counter6", Circuit: gen.Counter(6, true, false)},
		{Name: "gray5", Circuit: gen.GrayCounter(5)},
		{Name: "shift6", Circuit: gen.ShiftRegister(6)},
	}
	for seed := int64(1); seed <= 6; seed++ {
		suite = append(suite, gen.NamedCircuit{
			Name: "slike-rand",
			Circuit: gen.SLike(gen.SLikeParams{
				Seed:    seed,
				Inputs:  2 + int(seed)%5,
				Latches: 3 + int(seed)%4,
				Gates:   20 + 15*int(seed),
			}),
		})
	}
	for _, nc := range suite {
		inst, err := trans.NewBaseInstance(nc.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		orig := inst.F.Clone()
		frozen := make(map[lit.Var]bool)
		// Freeze only the state variables — the widest elimination the
		// one-step preimage needs, so the reconstruction covers inputs
		// and next-state vars too when they get eliminated.
		for _, v := range inst.StateVars {
			frozen[v] = true
		}
		res := simplify.Run(inst.F, func(v lit.Var) bool { return frozen[v] }, simplify.Options{})
		if res.Unsat {
			t.Fatalf("%s: base transition formula simplified to UNSAT", nc.Name)
		}
		for trial := 0; trial < 10; trial++ {
			s := sat.FromFormula(inst.F, sat.DefaultOptions())
			// Pin a random subset of the frozen state vars to hit
			// different regions of the solution space.
			var assume []lit.Lit
			for _, v := range inst.StateVars {
				if rng.Intn(2) == 0 {
					assume = append(assume, lit.New(v, rng.Intn(2) == 0))
				}
			}
			switch s.Solve(assume...) {
			case sat.Sat:
			case sat.Unsat:
				continue // this state cube has no transition; pick another
			default:
				t.Fatalf("%s: unbudgeted solve returned unknown", nc.Name)
			}
			model := res.Extend(s.Model())
			if len(model) != orig.NumVars {
				t.Fatalf("%s: extended model has %d vars, want %d",
					nc.Name, len(model), orig.NumVars)
			}
			for ci, cl := range orig.Clauses {
				satisfied := false
				for _, l := range cl {
					if model[l.Var()] != l.Sign() {
						satisfied = true
						break
					}
				}
				if !satisfied {
					t.Fatalf("%s trial %d: extended model violates original clause %d (%v)",
						nc.Name, trial, ci, cl)
				}
			}
		}
	}
}
