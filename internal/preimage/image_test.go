package preimage

import (
	"math/big"
	"math/rand"
	"testing"

	"allsatpre/internal/circuit"
	"allsatpre/internal/cube"
	"allsatpre/internal/gen"
	"allsatpre/internal/trans"
)

func TestImageCounterClosedForm(t *testing.T) {
	// Image of {k} under the enabled counter is {k, k+1}.
	c := gen.Counter(4, true, false)
	init := trans.TargetFromPatterns(4, "1010") // state 5
	for _, eng := range allEngines {
		r, err := Image(c, init, Options{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		got := coverSet(t, r.States)
		if len(got) != 2 || !got[5] || !got[6] {
			t.Fatalf("engine %v: image %v, want {5,6}", eng, got)
		}
	}
}

func TestImagePreimageDuality(t *testing.T) {
	// s' ∈ Img(I) ⟺ Pre({s'}) ∩ I ≠ ∅, spot-checked on a random circuit.
	c := gen.SLike(gen.SLikeParams{Seed: 51, Inputs: 4, Latches: 4, Gates: 25})
	init := trans.TargetFromPatterns(4, "1X0X")
	img, err := Image(c, init, Options{})
	if err != nil {
		t.Fatal(err)
	}
	imgSet := coverSet(t, img.States)
	for sv := 0; sv < 16; sv++ {
		pat := make([]byte, 4)
		st := make([]bool, 4)
		for i := range pat {
			if sv&(1<<uint(i)) != 0 {
				pat[i] = '1'
				st[i] = true
			} else {
				pat[i] = '0'
			}
		}
		pre, err := Compute(c, trans.TargetFromPatterns(4, string(pat)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		intersects := false
		for x := range coverSet(t, pre.States) {
			m := make([]bool, 4)
			for i := range m {
				m[i] = x&(1<<uint(i)) != 0
			}
			if init.Contains(m) {
				intersects = true
				break
			}
		}
		if intersects != imgSet[sv] {
			t.Fatalf("duality broken at state %04b: pre∩init=%v, in image=%v",
				sv, intersects, imgSet[sv])
		}
	}
}

func TestImageEmptyInit(t *testing.T) {
	c := gen.Counter(3, true, false)
	sp := StateSpace(c)
	for _, eng := range allEngines {
		r, err := Image(c, cube.NewCover(sp), Options{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		if r.Count.Sign() != 0 {
			t.Fatalf("engine %v: empty init should have empty image", eng)
		}
	}
}

func TestImageSharedNextStateGate(t *testing.T) {
	// Two latches fed by the same gate: next states always equal.
	c := circuit.New("shared")
	a := c.AddInput("a")
	s0 := c.AddLatch("s0", a)
	s1 := c.AddLatch("s1", a)
	g := c.AddGate("g", circuit.And, s0, a)
	c.Gates[s0].Fanins[0] = g
	c.Gates[s1].Fanins[0] = g
	c.MarkOutput(g)
	_ = s1
	checkOracle(t, c, trans.TargetFromPatterns(2, "XX"), "shared")
}

func TestForwardReachCounter(t *testing.T) {
	// Forward from {0}: each step adds exactly one new state.
	c := gen.Counter(3, true, false)
	init := trans.TargetFromPatterns(3, "000")
	r, err := ForwardReach(c, init, -1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Fixpoint || r.AllCount.Cmp(big.NewInt(8)) != 0 {
		t.Fatalf("forward reach: fixpoint=%v all=%v", r.Fixpoint, r.AllCount)
	}
	for k, cnt := range r.FrontierCounts {
		if cnt.Cmp(big.NewInt(1)) != 0 {
			t.Fatalf("frontier %d count %v, want 1", k, cnt)
		}
	}
}

func TestForwardReachJohnsonOrbit(t *testing.T) {
	// The Johnson counter's reachable set from 0 is its 2n-state orbit.
	c := gen.Johnson(4)
	init := trans.TargetFromPatterns(4, "0000")
	for _, eng := range allEngines {
		r, err := ForwardReach(c, init, -1, Options{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		if r.AllCount.Cmp(big.NewInt(8)) != 0 {
			t.Fatalf("engine %v: orbit size %v, want 8", eng, r.AllCount)
		}
	}
}

func TestForwardReachStepLimit(t *testing.T) {
	c := gen.Counter(4, true, false)
	init := trans.TargetFromPatterns(4, "0000")
	r, err := ForwardReach(c, init, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Fixpoint || r.AllCount.Cmp(big.NewInt(4)) != 0 {
		t.Fatalf("limited forward reach: %v states, fixpoint=%v", r.AllCount, r.Fixpoint)
	}
}

func TestCheckReachableWithTrace(t *testing.T) {
	// Counter: state 5 is reachable from 0 in 5 steps; the trace must
	// simulate correctly end to end.
	c := gen.Counter(4, true, false)
	init := trans.TargetFromPatterns(4, "0000")
	bad := trans.TargetFromPatterns(4, "1010")
	res, err := CheckReachable(c, init, bad, -1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable || !res.Complete {
		t.Fatalf("should be reachable: %+v", res)
	}
	if res.Steps != 5 {
		t.Fatalf("distance %d, want 5", res.Steps)
	}
	validateTrace(t, c, init, bad, res.Trace)
}

func validateTrace(t *testing.T, c *circuit.Circuit, init, bad *cube.Cover, tr *Trace) {
	t.Helper()
	if tr == nil {
		t.Fatal("missing trace")
	}
	if !init.Contains(tr.States[0]) {
		t.Fatal("trace does not start in init")
	}
	if !bad.Contains(tr.States[len(tr.States)-1]) {
		t.Fatal("trace does not end in bad")
	}
	sim, err := circuit.NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range tr.Inputs {
		_, next := sim.Step(tr.States[i], in)
		for k := range next {
			if next[k] != tr.States[i+1][k] {
				t.Fatalf("trace step %d does not simulate", i)
			}
		}
	}
	if tr.Steps() != len(tr.States)-1 {
		t.Fatal("Steps() inconsistent")
	}
}

func TestCheckReachableImmediateHit(t *testing.T) {
	c := gen.Counter(3, true, false)
	init := trans.TargetFromPatterns(3, "XXX")
	bad := trans.TargetFromPatterns(3, "110")
	res, err := CheckReachable(c, init, bad, -1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable || res.Steps != 0 || res.Trace.Steps() != 0 {
		t.Fatalf("init∩bad should hit at distance 0: %+v", res)
	}
}

func TestCheckReachableUnreachable(t *testing.T) {
	// Johnson counter: 0101 is not a code word, so it is unreachable from
	// the zero state; the backward fixpoint proves it.
	c := gen.Johnson(4)
	init := trans.TargetFromPatterns(4, "0000")
	bad := trans.TargetFromPatterns(4, "0101")
	for _, eng := range allEngines {
		res, err := CheckReachable(c, init, bad, -1, Options{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		if res.Reachable || !res.Complete {
			t.Fatalf("engine %v: 0101 should be provably unreachable: %+v", eng, res)
		}
	}
}

func TestCheckReachableStepCap(t *testing.T) {
	c := gen.Counter(4, true, false)
	init := trans.TargetFromPatterns(4, "0000")
	bad := trans.TargetFromPatterns(4, "1111")
	res, err := CheckReachable(c, init, bad, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable || res.Complete {
		t.Fatalf("step cap should return incomplete: %+v", res)
	}
}

func TestTraceOnRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for seed := int64(61); seed < 65; seed++ {
		c := gen.SLike(gen.SLikeParams{Seed: seed, Inputs: 4, Latches: 4, Gates: 25})
		initPat := make([]byte, 4)
		badPat := make([]byte, 4)
		for i := range initPat {
			initPat[i] = "01"[rng.Intn(2)]
			badPat[i] = "01"[rng.Intn(2)]
		}
		init := trans.TargetFromPatterns(4, string(initPat))
		bad := trans.TargetFromPatterns(4, string(badPat))
		res, err := CheckReachable(c, init, bad, 16, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Reachable {
			validateTrace(t, c, init, bad, res.Trace)
		}
	}
}
