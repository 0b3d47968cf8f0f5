package circuit

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildToy returns a small sequential circuit: a 2-bit counter with enable.
//
//	d0 = s0 XOR en
//	d1 = s1 XOR (s0 AND en)
func buildToy(t *testing.T) *Circuit {
	t.Helper()
	c := New("toy")
	en := c.AddInput("en")
	// Latches declared with placeholder fanins resolved after the logic.
	// AddLatch requires an existing gate, so declare logic bottom-up using
	// forward gate creation: create DFFs last referencing logic, but logic
	// references DFF outputs — so create DFF with a temporary source and
	// patch. Simpler: create inputs, then DFFs fed initially by the input,
	// then patch fanins.
	s0 := c.AddLatch("s0", en)
	s1 := c.AddLatch("s1", en)
	d0 := c.AddGate("d0", Xor, s0, en)
	carry := c.AddGate("carry", And, s0, en)
	d1 := c.AddGate("d1", Xor, s1, carry)
	c.Gates[s0].Fanins[0] = d0
	c.Gates[s1].Fanins[0] = d1
	c.MarkOutput(s1)
	return c
}

func TestAddGateValidation(t *testing.T) {
	c := New("t")
	a := c.AddInput("a")
	mustPanic(t, func() { c.AddInput("a") })           // duplicate
	mustPanic(t, func() { c.AddGate("x", Not, a, a) }) // arity
	mustPanic(t, func() { c.AddGate("y", And, a) })    // arity
	mustPanic(t, func() { c.AddGate("z", Buf, 99) })   // range
	mustPanic(t, func() { c.MarkOutput(42) })          // range
	if c.IndexOf("a") != a || c.IndexOf("nope") != -1 {
		t.Error("IndexOf")
	}
	if c.Gates[a].Name != "a" {
		t.Error("gate name")
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestEvalGateTruth(t *testing.T) {
	cases := []struct {
		t    GateType
		in   []bool
		want bool
	}{
		{Const0, nil, false}, {Const1, nil, true},
		{Buf, []bool{true}, true}, {Not, []bool{true}, false},
		{And, []bool{true, true, true}, true}, {And, []bool{true, false}, false},
		{Nand, []bool{true, true}, false}, {Nand, []bool{false, true}, true},
		{Or, []bool{false, false}, false}, {Or, []bool{false, true}, true},
		{Nor, []bool{false, false}, true}, {Nor, []bool{true, false}, false},
		{Xor, []bool{true, false}, true}, {Xor, []bool{true, true}, false},
		{Xnor, []bool{true, true}, true}, {Xnor, []bool{true, false}, false},
		{DFF, []bool{true}, true},
	}
	for _, tc := range cases {
		if got := EvalGate(tc.t, tc.in); got != tc.want {
			t.Errorf("EvalGate(%v, %v) = %v, want %v", tc.t, tc.in, got, tc.want)
		}
	}
	mustPanic(t, func() { EvalGate(GateType(99), nil) })
}

func TestToyCounterSimulation(t *testing.T) {
	c := buildToy(t)
	sim, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	state := []bool{false, false}
	// 5 enabled steps: counter goes 00 -> 01 -> 10 -> 11 -> 00 -> 01.
	for step, want := range [][]bool{{true, false}, {false, true}, {true, true}, {false, false}, {true, false}} {
		_, state = sim.Step(state, []bool{true})
		if state[0] != want[0] || state[1] != want[1] {
			t.Fatalf("step %d: state %v, want %v", step, state, want)
		}
	}
	// Disabled step holds.
	prev := append([]bool(nil), state...)
	_, state = sim.Step(state, []bool{false})
	if state[0] != prev[0] || state[1] != prev[1] {
		t.Fatal("disabled counter should hold state")
	}
}

func TestStepDimensionPanics(t *testing.T) {
	c := buildToy(t)
	sim, _ := NewSimulator(c)
	mustPanic(t, func() { sim.Step([]bool{false}, []bool{true}) })
	mustPanic(t, func() { sim.Step64(nil, nil) })
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	c := New("cyc")
	a := c.AddInput("a")
	g1 := c.AddGate("g1", And, a, a)
	g2 := c.AddGate("g2", Or, g1, a)
	// Introduce a combinational cycle g1 <- g2.
	c.Gates[g1].Fanins[1] = g2
	if _, err := c.TopoOrder(); err == nil {
		t.Fatal("expected cycle error")
	}
	if _, err := c.Levels(); err == nil {
		t.Fatal("Levels should propagate cycle error")
	}
	if _, err := NewSimulator(c); err == nil {
		t.Fatal("NewSimulator should reject cycles")
	}
	if d, err := c.Depth(); err == nil {
		t.Fatalf("Depth should fail, got %d", d)
	}
	if s := c.Stats(); s.Depth != -1 {
		t.Fatal("Stats depth should be -1 on cyclic netlists")
	}
}

func TestLatchFeedbackIsNotACycle(t *testing.T) {
	c := buildToy(t)
	if _, err := c.TopoOrder(); err != nil {
		t.Fatalf("latch feedback flagged as cycle: %v", err)
	}
	d, err := c.Depth()
	if err != nil || d != 2 {
		t.Fatalf("Depth = %d, %v; want 2", d, err)
	}
}

func TestLevels(t *testing.T) {
	c := buildToy(t)
	lvl, err := c.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if lvl[c.IndexOf("en")] != 0 || lvl[c.IndexOf("s0")] != 0 {
		t.Error("sources should be level 0")
	}
	if lvl[c.IndexOf("carry")] != 1 || lvl[c.IndexOf("d1")] != 2 {
		t.Errorf("levels: carry=%d d1=%d", lvl[c.IndexOf("carry")], lvl[c.IndexOf("d1")])
	}
}

func TestS27ParseAndStats(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "s27.bench"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := ParseBenchString("s27", string(data))
	if err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Inputs != 4 || s.Outputs != 1 || s.Latches != 3 {
		t.Fatalf("s27 stats wrong: %v", s)
	}
	if s.CombGates != 10 {
		t.Fatalf("s27 should have 10 combinational gates, got %d", s.CombGates)
	}
	if !strings.Contains(s.String(), "PI=4") {
		t.Error("Stats.String")
	}
}

func TestS27SimulationKnownVector(t *testing.T) {
	data, _ := os.ReadFile(filepath.Join("..", "..", "testdata", "s27.bench"))
	c, err := ParseBenchString("s27", string(data))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	// All-zero state, all-zero inputs: compute by hand.
	// G14=NOT(G0)=1, G8=AND(G14,G6)=0, G12=NOR(G1,G7)=1, G15=OR(G12,G8)=1,
	// G16=OR(G3,G8)=0, G9=NAND(G16,G15)=1, G11=NOR(G5,G9)=0, G17=NOT(G11)=1,
	// G10=NOR(G14,G11)=0, G13=NOR(G2,G12)=0.
	out, next := sim.Step([]bool{false, false, false}, []bool{false, false, false, false})
	if !out[0] {
		t.Error("G17 should be 1")
	}
	for i, want := range []bool{false, false, false} { // G10, G11, G13
		if next[i] != want {
			t.Errorf("next[%d] = %v, want %v", i, next[i], want)
		}
	}
}

func TestBenchRoundTrip(t *testing.T) {
	data, _ := os.ReadFile(filepath.Join("..", "..", "testdata", "s27.bench"))
	c, err := ParseBenchString("s27", string(data))
	if err != nil {
		t.Fatal(err)
	}
	text := BenchString(c)
	c2, err := ParseBenchString("s27rt", text)
	if err != nil {
		t.Fatalf("round-trip parse failed: %v\n%s", err, text)
	}
	// Behavioural equivalence on random vectors.
	sim1, _ := NewSimulator(c)
	sim2, _ := NewSimulator(c2)
	rng := rand.New(rand.NewSource(9))
	st1 := make([]bool, 3)
	st2 := make([]bool, 3)
	for step := 0; step < 200; step++ {
		in := []bool{rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0}
		var o1, o2 []bool
		o1, st1 = sim1.Step(st1, in)
		o2, st2 = sim2.Step(st2, in)
		if o1[0] != o2[0] {
			t.Fatalf("step %d: outputs diverge", step)
		}
	}
}

func TestBenchParseErrors(t *testing.T) {
	cases := []string{
		"INPUT(a)\nINPUT(a)\n",                  // dup input
		"INPUT a\n",                             // malformed
		"INPUT()\n",                             // empty name
		"f = AND(a, b)\n",                       // undefined fanins
		"INPUT(a)\nf = FROB(a, a)\n",            // unknown type
		"INPUT(a)\nf = NOT(a, a)\n",             // arity
		"INPUT(a)\nOUTPUT(zz)\nf = NOT(a)",      // undefined output
		"INPUT(a)\nf AND(a)\n",                  // no '='
		"INPUT(a)\nf = AND a, a\n",              // no parens
		"INPUT(a)\nf = AND(a, g)\ng = NOT(f)\n", // comb cycle
		"INPUT(a)\nf = NOT(a)\nf = BUF(a)\n",    // dup definition
	}
	for _, s := range cases {
		if _, err := ParseBenchString("bad", s); err == nil {
			t.Errorf("expected parse error for:\n%s", s)
		}
	}
}

func TestBenchConstAndAliases(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(f)
z = CONST0()
o = ONE()
b = BUFF(a)
n = INV(b)
q = FF(n)
f = and(q, o)
`
	c, err := ParseBenchString("alias", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Latches) != 1 || c.Gates[c.IndexOf("z")].Type != Const0 ||
		c.Gates[c.IndexOf("o")].Type != Const1 {
		t.Fatal("alias parsing wrong")
	}
	sim, err := NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	out, next := sim.Step([]bool{true}, []bool{true})
	if !out[0] {
		t.Error("f = q AND 1 with q=1 should be 1")
	}
	if next[0] {
		t.Error("next q = NOT(BUF(1)) should be 0")
	}
}

func TestStep64MatchesScalar(t *testing.T) {
	data, _ := os.ReadFile(filepath.Join("..", "..", "testdata", "s27.bench"))
	c, err := ParseBenchString("s27", string(data))
	if err != nil {
		t.Fatal(err)
	}
	sim, _ := NewSimulator(c)
	rng := rand.New(rand.NewSource(123))
	nL, nI := len(c.Latches), len(c.Inputs)
	state64 := make([]uint64, nL)
	in64 := make([]uint64, nI)
	for i := range state64 {
		state64[i] = rng.Uint64()
	}
	for i := range in64 {
		in64[i] = rng.Uint64()
	}
	out64, next64 := sim.Step64(state64, in64)
	for bit := 0; bit < 64; bit++ {
		st := make([]bool, nL)
		in := make([]bool, nI)
		for i := range st {
			st[i] = state64[i]&(1<<uint(bit)) != 0
		}
		for i := range in {
			in[i] = in64[i]&(1<<uint(bit)) != 0
		}
		out, next := sim.Step(st, in)
		for k := range out {
			if out[k] != (out64[k]&(1<<uint(bit)) != 0) {
				t.Fatalf("bit %d output %d mismatch", bit, k)
			}
		}
		for k := range next {
			if next[k] != (next64[k]&(1<<uint(bit)) != 0) {
				t.Fatalf("bit %d next-state %d mismatch", bit, k)
			}
		}
	}
}

func TestRunTrace(t *testing.T) {
	c := buildToy(t)
	sim, _ := NewSimulator(c)
	var trace [][]bool
	final := []bool{false, false}
	for _, in := range [][]bool{{true}, {true}, {true}} {
		var out []bool
		out, final = sim.Step(final, in)
		trace = append(trace, out)
	}
	if len(trace) != 3 {
		t.Fatal("trace length")
	}
	if final[0] != true || final[1] != true {
		t.Fatalf("final state %v, want [true true]", final)
	}
}

func TestGateTypeString(t *testing.T) {
	if And.String() != "AND" || DFF.String() != "DFF" {
		t.Error("GateType.String")
	}
	if !strings.Contains(GateType(99).String(), "99") {
		t.Error("unknown GateType.String")
	}
}
