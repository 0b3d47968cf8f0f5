package preimage

import (
	"math/big"
	"testing"

	"allsatpre/internal/circuit"
	"allsatpre/internal/cube"
	"allsatpre/internal/gen"
	"allsatpre/internal/trans"
)

// bruteBackwardBFS computes, by explicit-state search, the set of states
// that can reach the target within maxSteps transitions (or all, if
// maxSteps < 0), plus the per-distance frontiers.
func bruteBackwardBFS(t *testing.T, c *circuit.Circuit, target *cube.Cover, maxSteps int) ([]map[int]bool, map[int]bool) {
	t.Helper()
	nL, nI := len(c.Latches), len(c.Inputs)
	sim, err := circuit.NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	// Precompute the transition relation as predecessor lists.
	preds := make([][]int, 1<<uint(nL))
	for sv := 0; sv < 1<<uint(nL); sv++ {
		st := make([]bool, nL)
		for i := range st {
			st[i] = sv&(1<<uint(i)) != 0
		}
		for iv := 0; iv < 1<<uint(nI); iv++ {
			in := make([]bool, nI)
			for i := range in {
				in[i] = iv&(1<<uint(i)) != 0
			}
			_, next := sim.Step(st, in)
			nv := 0
			for i, b := range next {
				if b {
					nv |= 1 << uint(i)
				}
			}
			preds[nv] = append(preds[nv], sv)
		}
	}
	visited := map[int]bool{}
	frontier := map[int]bool{}
	m := make([]bool, nL)
	for x := 0; x < 1<<uint(nL); x++ {
		for i := 0; i < nL; i++ {
			m[i] = x&(1<<uint(i)) != 0
		}
		if target.Contains(m) {
			visited[x] = true
			frontier[x] = true
		}
	}
	layers := []map[int]bool{copySet(frontier)}
	for step := 0; maxSteps < 0 || step < maxSteps; step++ {
		next := map[int]bool{}
		for x := range frontier {
			for _, p := range preds[x] {
				if !visited[p] {
					next[p] = true
				}
			}
		}
		if len(next) == 0 {
			break
		}
		for x := range next {
			visited[x] = true
		}
		layers = append(layers, copySet(next))
		frontier = next
	}
	return layers, visited
}

func copySet(s map[int]bool) map[int]bool {
	out := make(map[int]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func checkReach(t *testing.T, tag string, c *circuit.Circuit, target *cube.Cover, maxSteps int, opts Options) {
	t.Helper()
	wantLayers, wantAll := bruteBackwardBFS(t, c, target, maxSteps)
	r, err := Reach(c, target, maxSteps, opts)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	gotAll := coverSet(t, r.All)
	for x := range wantAll {
		if !gotAll[x] {
			t.Fatalf("%s: missing reachable state %b", tag, x)
		}
	}
	for x := range gotAll {
		if !wantAll[x] {
			t.Fatalf("%s: spurious reachable state %b", tag, x)
		}
	}
	if r.AllCount.Cmp(big.NewInt(int64(len(wantAll)))) != 0 {
		t.Fatalf("%s: AllCount %v, want %d", tag, r.AllCount, len(wantAll))
	}
	if len(r.Frontiers) != len(wantLayers) {
		t.Fatalf("%s: %d frontiers, want %d", tag, len(r.Frontiers), len(wantLayers))
	}
	for k, layer := range wantLayers {
		got := coverSet(t, r.Frontiers[k])
		if len(got) != len(layer) {
			t.Fatalf("%s: frontier %d has %d states, want %d", tag, k, len(got), len(layer))
		}
		for x := range layer {
			if !got[x] {
				t.Fatalf("%s: frontier %d missing %b", tag, k, x)
			}
		}
		if r.FrontierCounts[k].Cmp(big.NewInt(int64(len(layer)))) != 0 {
			t.Fatalf("%s: frontier count %d mismatch", tag, k)
		}
	}
}

func TestReachCounterLayers(t *testing.T) {
	// Enabled counter, target {s=5}: each backward layer adds exactly one
	// new state (5, then 4, 3, ... wrapping), reaching all 8 states.
	c := gen.Counter(3, true, false)
	target := trans.TargetFromPatterns(3, "101")
	r, err := Reach(c, target, -1, Options{Engine: EngineSuccessDriven})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Fixpoint {
		t.Fatal("should reach fixpoint")
	}
	if r.AllCount.Cmp(big.NewInt(8)) != 0 {
		t.Fatalf("AllCount %v, want 8", r.AllCount)
	}
	if len(r.Frontiers) != 8 {
		t.Fatalf("%d frontiers, want 8 (one new state per step)", len(r.Frontiers))
	}
	for k, cnt := range r.FrontierCounts {
		if cnt.Cmp(big.NewInt(1)) != 0 {
			t.Fatalf("frontier %d count %v, want 1", k, cnt)
		}
	}
}

func TestReachAgainstBFSAllEngines(t *testing.T) {
	cases := []struct {
		c      *circuit.Circuit
		target *cube.Cover
	}{
		{gen.Counter(4, true, false), trans.TargetFromPatterns(4, "1111")},
		{gen.ShiftRegister(4), trans.TargetFromPatterns(4, "1001")},
		{gen.Johnson(4), trans.TargetFromPatterns(4, "1111")},
		{gen.TrafficLight(), trans.TargetFromPatterns(5, "010XX")},
		{gen.SLike(gen.SLikeParams{Seed: 31, Inputs: 4, Latches: 4, Gates: 25}), trans.TargetFromPatterns(4, "0110")},
	}
	for _, tc := range cases {
		for _, eng := range allEngines {
			checkReach(t, tc.c.Name+"/"+eng.String(), tc.c, tc.target, -1, Options{Engine: eng})
		}
	}
}

func TestReachStepLimit(t *testing.T) {
	c := gen.Counter(4, true, false)
	target := trans.TargetFromPatterns(4, "0000")
	r, err := Reach(c, target, 3, Options{Engine: EngineSuccessDriven})
	if err != nil {
		t.Fatal(err)
	}
	if r.Fixpoint {
		t.Fatal("should not reach fixpoint in 3 steps")
	}
	if r.Steps != 3 {
		t.Fatalf("Steps = %d, want 3", r.Steps)
	}
	// Target + 3 new states.
	if r.AllCount.Cmp(big.NewInt(4)) != 0 {
		t.Fatalf("AllCount %v, want 4", r.AllCount)
	}
	checkReach(t, "counter-limited", c, target, 3, Options{Engine: EngineSuccessDriven})
}

func TestReachUnreachableTarget(t *testing.T) {
	// Johnson counter: state 0101 (alternating) has no predecessor within
	// the Johnson orbit... it does have predecessors in the full state
	// graph (any state shifts), so instead use an empty target.
	c := gen.Johnson(4)
	sp := StateSpace(c)
	empty := cube.NewCover(sp)
	r, err := Reach(c, empty, -1, Options{Engine: EngineSuccessDriven})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Fixpoint || r.AllCount.Sign() != 0 {
		t.Fatalf("empty target should fixpoint immediately with 0 states")
	}
}

func TestReachStatsAccumulate(t *testing.T) {
	c := gen.Counter(4, true, false)
	target := trans.TargetFromPatterns(4, "1010")
	r, err := Reach(c, target, -1, Options{Engine: EngineBlocking})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Solutions == 0 || r.Stats.Decisions == 0 {
		t.Error("expected accumulated SAT stats")
	}
	if r.Steps == 0 {
		t.Error("no steps recorded")
	}
}

func TestReachS27Fixpoint(t *testing.T) {
	c := loadS27(t)
	target := trans.TargetFromPatterns(3, "111")
	for _, eng := range allEngines {
		checkReach(t, "s27/"+eng.String(), c, target, -1, Options{Engine: eng})
	}
}
