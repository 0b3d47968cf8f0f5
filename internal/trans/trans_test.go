package trans

import (
	"os"
	"path/filepath"
	"testing"

	"allsatpre/internal/circuit"
	"allsatpre/internal/cube"
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

func TestInstanceSpaces(t *testing.T) {
	c := loadS27(t)
	target := TargetFromPatterns(3, "1XX")
	inst, err := NewInstance(c, target)
	if err != nil {
		t.Fatal(err)
	}
	if inst.StateSpace.Size() != 3 || inst.FullSpace.Size() != 7 {
		t.Fatalf("space sizes: %d %d", inst.StateSpace.Size(), inst.FullSpace.Size())
	}
	if inst.StateSpace.Name(0) != "G5" {
		t.Errorf("latch name = %q, want G5", inst.StateSpace.Name(0))
	}
	if n := selectors(t, c, inst); n != 1 {
		t.Errorf("selector count = %d", n)
	}
}

// selectors counts the variables the target constraint added to the base
// instance's formula: one selector per cube.
func selectors(t *testing.T, c *circuit.Circuit, inst *Instance) int {
	t.Helper()
	base, err := NewBaseInstance(c)
	if err != nil {
		t.Fatal(err)
	}
	return inst.F.NumVars - base.F.NumVars
}

func TestTargetWidthMismatch(t *testing.T) {
	c := loadS27(t)
	if _, err := NewInstance(c, TargetFromPatterns(2, "1X")); err == nil {
		t.Fatal("expected width-mismatch error")
	}
}

// TestInstanceSemantics cross-checks the CNF against simulation: for every
// (state, input) pair of s27, the instance is satisfiable under the pair's
// assumptions iff simulation lands in the target.
func TestInstanceSemantics(t *testing.T) {
	c := loadS27(t)
	sim, err := circuit.NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	// Target: G10'=1 and G13'=0 (one cube with a free middle position).
	target := TargetFromPatterns(3, "1X0")
	inst, err := NewInstance(c, target)
	if err != nil {
		t.Fatal(err)
	}
	s := sat.FromFormula(inst.F, sat.DefaultOptions())
	for sv := 0; sv < 8; sv++ {
		for iv := 0; iv < 16; iv++ {
			st := []bool{sv&1 != 0, sv&2 != 0, sv&4 != 0}
			in := []bool{iv&1 != 0, iv&2 != 0, iv&4 != 0, iv&8 != 0}
			_, next := sim.Step(st, in)
			want := next[0] && !next[2]
			var assume []lit.Lit
			for i, v := range inst.StateVars {
				assume = append(assume, lit.New(v, !st[i]))
			}
			for i, v := range inst.InputVars {
				assume = append(assume, lit.New(v, !in[i]))
			}
			got := s.Solve(assume...)
			if want && got != sat.Sat {
				t.Fatalf("state %d input %d: want SAT, got %v", sv, iv, got)
			}
			if !want && got != sat.Unsat {
				t.Fatalf("state %d input %d: want UNSAT, got %v", sv, iv, got)
			}
		}
	}
}

func TestMultiCubeTarget(t *testing.T) {
	c := loadS27(t)
	sim, _ := circuit.NewSimulator(c)
	target := TargetFromPatterns(3, "111", "000")
	inst, err := NewInstance(c, target)
	if err != nil {
		t.Fatal(err)
	}
	if n := selectors(t, c, inst); n != 2 {
		t.Fatalf("want 2 selectors, got %d", n)
	}
	s := sat.FromFormula(inst.F, sat.DefaultOptions())
	for sv := 0; sv < 8; sv++ {
		for iv := 0; iv < 16; iv++ {
			st := []bool{sv&1 != 0, sv&2 != 0, sv&4 != 0}
			in := []bool{iv&1 != 0, iv&2 != 0, iv&4 != 0, iv&8 != 0}
			_, next := sim.Step(st, in)
			all := next[0] && next[1] && next[2]
			none := !next[0] && !next[1] && !next[2]
			want := all || none
			var assume []lit.Lit
			for i, v := range inst.StateVars {
				assume = append(assume, lit.New(v, !st[i]))
			}
			for i, v := range inst.InputVars {
				assume = append(assume, lit.New(v, !in[i]))
			}
			got := s.Solve(assume...)
			if (got == sat.Sat) != want {
				t.Fatalf("state %d input %d: want %v, got %v", sv, iv, want, got)
			}
		}
	}
}

// TestImageInstanceSemantics: the image CNF is satisfiable under a
// (state, input) assumption pair iff the state lies in the initial cover.
func TestImageInstanceSemantics(t *testing.T) {
	c := loadS27(t)
	init := TargetFromPatterns(3, "1X0")
	inst, err := NewImageInstance(c, init)
	if err != nil {
		t.Fatal(err)
	}
	if n := selectors(t, c, inst); n != 1 {
		t.Fatalf("selector count %d", n)
	}
	s := sat.FromFormula(inst.F, sat.DefaultOptions())
	for sv := 0; sv < 8; sv++ {
		st := []bool{sv&1 != 0, sv&2 != 0, sv&4 != 0}
		want := st[0] && !st[2]
		var assume []lit.Lit
		for i, v := range inst.StateVars {
			assume = append(assume, lit.New(v, !st[i]))
		}
		got := s.Solve(assume...)
		if want && got != sat.Sat || !want && got != sat.Unsat {
			t.Fatalf("state %03b: got %v, want in-init=%v", sv, got, want)
		}
	}
}

func TestImageInstanceErrors(t *testing.T) {
	c := loadS27(t)
	if _, err := NewImageInstance(c, TargetFromPatterns(2, "11")); err == nil {
		t.Fatal("expected width error")
	}
	// Empty init: unsatisfiable instance.
	sp := cube.NewSpace([]lit.Var{0, 1, 2})
	inst, err := NewImageInstance(c, cube.NewCover(sp))
	if err != nil {
		t.Fatal(err)
	}
	s := sat.FromFormula(inst.F, sat.DefaultOptions())
	if got := s.Solve(); got != sat.Unsat {
		t.Fatalf("empty init should be UNSAT, got %v", got)
	}
}

func TestImageInstanceMultiCube(t *testing.T) {
	c := loadS27(t)
	init := TargetFromPatterns(3, "111", "000")
	inst, err := NewImageInstance(c, init)
	if err != nil {
		t.Fatal(err)
	}
	if selectors(t, c, inst) != 2 || inst.StateSpace.Size() != 3 || inst.FullSpace.Size() != 7 {
		t.Fatal("instance shape")
	}
	s := sat.FromFormula(inst.F, sat.DefaultOptions())
	for sv := 0; sv < 8; sv++ {
		st := []bool{sv&1 != 0, sv&2 != 0, sv&4 != 0}
		want := sv == 0 || sv == 7
		var assume []lit.Lit
		for i, v := range inst.StateVars {
			assume = append(assume, lit.New(v, !st[i]))
		}
		got := s.Solve(assume...)
		if (got == sat.Sat) != want {
			t.Fatalf("state %03b: got %v, want %v", sv, got, want)
		}
	}
}

func TestEmptyTargetIsUnsat(t *testing.T) {
	c := loadS27(t)
	sp := cube.NewSpace([]lit.Var{0, 1, 2})
	inst, err := NewInstance(c, cube.NewCover(sp))
	if err != nil {
		t.Fatal(err)
	}
	s := sat.FromFormula(inst.F, sat.DefaultOptions())
	if got := s.Solve(); got != sat.Unsat {
		t.Fatalf("empty target should be UNSAT, got %v", got)
	}
}

func TestRetargetCover(t *testing.T) {
	c := loadS27(t)
	inst, _ := NewInstance(c, TargetFromPatterns(3, "1XX"))
	src := TargetFromPatterns(3, "01X", "X10")
	out := inst.RetargetCover(src)
	if out.Space() != inst.StateSpace {
		t.Fatal("retargeted cover should live on the instance state space")
	}
	if out.Len() != 2 || out.Cubes()[0].String() != "01X" {
		t.Fatal("cube patterns should be preserved")
	}
}

func TestTargetFromPatterns(t *testing.T) {
	cv := TargetFromPatterns(2, "1X", "01")
	if cv.Len() != 2 || cv.Space().Size() != 2 {
		t.Fatal("TargetFromPatterns shape")
	}
}
