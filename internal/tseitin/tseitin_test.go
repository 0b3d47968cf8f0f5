package tseitin

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"allsatpre/internal/circuit"
	"allsatpre/internal/cnf"
	"allsatpre/internal/lit"
	"allsatpre/internal/sat"
)

func loadS27(t *testing.T) *circuit.Circuit {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "s27.bench"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := circuit.ParseBenchString("s27", string(data))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// randomCombCircuit builds a random DAG of gates over nIn inputs.
func randomCombCircuit(rng *rand.Rand, nIn, nGates int) *circuit.Circuit {
	c := circuit.New("rnd")
	for i := 0; i < nIn; i++ {
		c.AddInput(name("i", i))
	}
	types := []circuit.GateType{circuit.And, circuit.Or, circuit.Nand,
		circuit.Nor, circuit.Xor, circuit.Xnor, circuit.Not, circuit.Buf}
	for g := 0; g < nGates; g++ {
		typ := types[rng.Intn(len(types))]
		n := c.NumGates()
		var fanins []int
		switch typ {
		case circuit.Not, circuit.Buf:
			fanins = []int{rng.Intn(n)}
		default:
			fanins = []int{rng.Intn(n), rng.Intn(n)}
		}
		c.AddGate(name("g", g), typ, fanins...)
	}
	c.MarkOutput(c.NumGates() - 1)
	return c
}

func name(p string, i int) string {
	return p + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10)) + string(rune('0'+i%10))
}

// TestEncodingAgreesWithSimulation: for random input vectors, the CNF with
// inputs fixed must be satisfiable with internal variables equal to the
// simulated values, and the output variable must match.
func TestEncodingAgreesWithSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 60; iter++ {
		c := randomCombCircuit(rng, 2+rng.Intn(4), 1+rng.Intn(15))
		e, err := Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := circuit.NewSimulator(c)
		if err != nil {
			t.Fatal(err)
		}
		for vec := 0; vec < 8; vec++ {
			in := make([]bool, len(c.Inputs))
			for i := range in {
				in[i] = rng.Intn(2) == 0
			}
			out, _ := sim.Step(nil, in)

			s := sat.FromFormula(e.F, sat.DefaultOptions())
			var assume []lit.Lit
			for i, v := range e.InputVars {
				assume = append(assume, lit.New(v, !in[i]))
			}
			if st := s.Solve(assume...); st != sat.Sat {
				t.Fatalf("iter %d: CNF unsat under consistent inputs (%v)", iter, st)
			}
			m := s.Model()
			for k, ov := range e.OutputVars {
				if m[ov] != out[k] {
					t.Fatalf("iter %d: output %d mismatch: CNF %v, sim %v", iter, k, m[ov], out[k])
				}
			}
			// Forcing the output to the opposite value must be UNSAT.
			assume2 := append(append([]lit.Lit(nil), assume...),
				lit.New(e.OutputVars[0], out[0]))
			if st := s.Solve(assume2...); st != sat.Unsat {
				t.Fatalf("iter %d: flipped output should be UNSAT, got %v", iter, st)
			}
		}
	}
}

// TestModelCountMatchesCircuit: the number of CNF models equals 2^(inputs)
// for a combinational circuit, since internal signals are functionally
// determined.
func TestModelCountMatchesCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for iter := 0; iter < 40; iter++ {
		c := randomCombCircuit(rng, 2+rng.Intn(3), 1+rng.Intn(8))
		e, err := Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		if e.F.NumVars > 20 {
			continue
		}
		want := 1 << uint(len(c.Inputs))
		if got := e.F.CountModels(); got != want {
			t.Fatalf("iter %d: %d models, want %d\n%s", iter, got, want,
				cnf.DimacsString(e.F, nil))
		}
	}
}

func TestS27Encoding(t *testing.T) {
	c := loadS27(t)
	e, err := Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.InputVars) != 4 || len(e.StateVars) != 3 || len(e.NextStateVars) != 3 || len(e.OutputVars) != 1 {
		t.Fatalf("var group sizes wrong: %d %d %d %d",
			len(e.InputVars), len(e.StateVars), len(e.NextStateVars), len(e.OutputVars))
	}
	// CNF model count = 2^(PI+FF): 2^7 = 128.
	if got := e.F.CountModels(); got != 128 {
		t.Fatalf("s27 CNF has %d models, want 128", got)
	}
}

// TestS27TransitionAgreement: a SAT model of the CNF, read at
// (state, input) → next-state vars, must agree with simulation.
func TestS27TransitionAgreement(t *testing.T) {
	c := loadS27(t)
	e, _ := Encode(c)
	sim, _ := circuit.NewSimulator(c)
	rng := rand.New(rand.NewSource(99))
	s := sat.FromFormula(e.F, sat.DefaultOptions())
	for iter := 0; iter < 64; iter++ {
		st := []bool{rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0}
		in := []bool{rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0}
		_, next := sim.Step(st, in)
		var assume []lit.Lit
		for i, v := range e.StateVars {
			assume = append(assume, lit.New(v, !st[i]))
		}
		for i, v := range e.InputVars {
			assume = append(assume, lit.New(v, !in[i]))
		}
		if got := s.Solve(assume...); got != sat.Sat {
			t.Fatalf("iter %d: unsat", iter)
		}
		m := s.Model()
		for i, v := range e.NextStateVars {
			if m[v] != next[i] {
				t.Fatalf("iter %d: next-state %d mismatch", iter, i)
			}
		}
	}
}

func TestEncodeRejectsCyclic(t *testing.T) {
	c := circuit.New("cyc")
	a := c.AddInput("a")
	g1 := c.AddGate("g1", circuit.And, a, a)
	g2 := c.AddGate("g2", circuit.Or, g1, a)
	c.Gates[g1].Fanins[1] = g2
	if _, err := Encode(c); err == nil {
		t.Fatal("expected error on cyclic circuit")
	}
}

func TestConstants(t *testing.T) {
	c := circuit.New("const")
	z := c.AddGate("z", circuit.Const0)
	o := c.AddGate("o", circuit.Const1)
	f := c.AddGate("f", circuit.And, z, o)
	c.MarkOutput(f)
	e, err := Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	s := sat.FromFormula(e.F, sat.DefaultOptions())
	if st := s.Solve(); st != sat.Sat {
		t.Fatal("const circuit CNF should be SAT")
	}
	m := s.Model()
	if m[e.VarOf[z]] || !m[e.VarOf[o]] || m[e.VarOf[f]] {
		t.Fatal("constant values wrong in model")
	}
}
