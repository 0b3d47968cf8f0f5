package allsatpre

import (
	"fmt"
	"math/big"
	"os"
	"strings"
	"testing"

	"allsatpre/internal/allsat"
)

func TestLoadBenchAndPreimage(t *testing.T) {
	c, err := LoadBench("testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Latches) != 3 {
		t.Fatalf("s27 should have 3 latches")
	}
	r, err := Preimage(c, Options{}, "111")
	if err != nil {
		t.Fatal(err)
	}
	if r.Count == nil || r.StateSpace.Size() != 3 {
		t.Fatal("result shape")
	}
	// Cross-engine agreement through the facade.
	for _, eng := range []Engine{EngineBlocking, EngineLifting, EngineBDD} {
		r2, err := Preimage(c, Options{Engine: eng}, "111")
		if err != nil {
			t.Fatal(err)
		}
		if r.Count.Cmp(r2.Count) != 0 {
			t.Fatalf("engine %v disagrees: %v vs %v", eng, r2.Count, r.Count)
		}
	}
}

func TestLoadBenchMissingFile(t *testing.T) {
	if _, err := LoadBench("testdata/nope.bench"); err == nil {
		t.Fatal("expected error")
	}
}

func TestLoadAiger(t *testing.T) {
	c, err := LoadAiger("testdata/johnson4.aag")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Latches) != 4 || len(c.Inputs) != 0 {
		t.Fatalf("johnson4.aag shape: %v", c.Stats())
	}
	// Behaves like a Johnson counter: preimage of 1000 is {0000}.
	r, err := Preimage(c, Options{}, "1000")
	if err != nil {
		t.Fatal(err)
	}
	if r.Count.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("preimage count %v, want 1", r.Count)
	}
	if r.States.Cubes()[0].String() != "0000" {
		t.Fatalf("preimage %s, want 0000", r.States.Cubes()[0])
	}
	if _, err := LoadAiger("testdata/nope.aag"); err == nil {
		t.Fatal("expected missing-file error")
	}
	if _, err := LoadAiger("testdata/s27.bench"); err == nil {
		t.Fatal("expected parse error for BENCH content")
	}
}

func TestParseBench(t *testing.T) {
	c, err := ParseBench("mini", "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Latches) != 1 {
		t.Fatal("latch count")
	}
	if _, err := ParseBench("bad", "garbage("); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestTargetValidation(t *testing.T) {
	c := NewCounter(4, true, false)
	if _, err := Target(c, "11"); err == nil {
		t.Fatal("expected width error")
	}
	cv, err := Target(c, "1XX0", "0011")
	if err != nil || cv.Len() != 2 {
		t.Fatal("Target failed")
	}
	if _, err := Preimage(c, Options{}, "1"); err == nil {
		t.Fatal("Preimage should propagate width error")
	}
	if _, err := BackwardReach(c, Options{}, 1, "1"); err == nil {
		t.Fatal("BackwardReach should propagate width error")
	}
}

func TestFacadeBackwardReach(t *testing.T) {
	c := NewCounter(3, true, false)
	r, err := BackwardReach(c, Options{}, -1, "101")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Fixpoint || r.AllCount.Cmp(big.NewInt(8)) != 0 {
		t.Fatalf("reach: fixpoint=%v all=%v", r.Fixpoint, r.AllCount)
	}
}

func TestPreimageOf(t *testing.T) {
	c := NewShiftRegister(4)
	target, _ := Target(c, "1XXX")
	r, err := PreimageOf(c, target, Options{Engine: EngineBDD})
	if err != nil {
		t.Fatal(err)
	}
	// s0' = sin, so every state can reach s0'=1: preimage is all 16.
	if r.Count.Cmp(big.NewInt(16)) != 0 {
		t.Fatalf("count %v, want 16", r.Count)
	}
}

func TestEnumerateDimacs(t *testing.T) {
	src := "c proj 1 2\np cnf 3 2\n1 2 0\n-1 3 0\n"
	for _, eng := range []Engine{EngineSuccessDriven, EngineBlocking, EngineLifting} {
		r, err := EnumerateDimacs(strings.NewReader(src), eng, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Projections of models onto (x1,x2): 01, 10, 11 → 3.
		if r.Count.Cmp(big.NewInt(3)) != 0 {
			t.Fatalf("engine %v: count %v, want 3", eng, r.Count)
		}
	}
	// Explicit projection overrides the file.
	r, err := EnumerateDimacs(strings.NewReader(src), EngineSuccessDriven, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Count.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("count %v, want 2", r.Count)
	}
	// No projection info: all variables.
	r, err = EnumerateDimacs(strings.NewReader("p cnf 2 1\n1 0\n"), EngineSuccessDriven, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("count %v, want 2", r.Count)
	}
}

// TestEnumerateDimacsPreprocess runs every DIMACS engine, with and
// without the projection-safe simplifier, over a subsumed clause plus an
// implied unit and over a contradiction: simplifying must not change the
// projected set, and the contradiction must give an empty, un-aborted
// result.
func TestEnumerateDimacsPreprocess(t *testing.T) {
	cases := []struct {
		name, src string
		count     int64
	}{
		// x1 is implied through x4; (1 2 3) is subsumed by (1 2).
		{"subsumed", "c proj 1 2 3\np cnf 4 4\n1 2 0\n1 2 3 0\n4 0\n-4 1 0\n", 4},
		{"unsat", "p cnf 1 2\n1 0\n-1 0\n", 0},
	}
	for _, tc := range cases {
		checkDimacsAllEngines(t, tc.name, tc.src, tc.count)
	}
}

// TestDimacsFixturesGolden runs every DIMACS engine, with and without
// the projection-safe simplifier, over the fixture files. Every run must
// report the known count and the same projected set; a one-cube cap must
// truncate the cube engines loudly wherever their uncut cover has more
// than one cube, and leave a one-cube cover complete.
func TestDimacsFixturesGolden(t *testing.T) {
	cases := []struct {
		file  string
		count int64
	}{
		{"testdata/parity5.cnf", 16}, // odd-parity assignments of 5 bits
		{"testdata/mux4.cnf", 8},     // every (sel, out) pair is realizable
	}
	for _, tc := range cases {
		data, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		src := string(data)
		checkDimacsAllEngines(t, tc.file, src, tc.count)
		for _, eng := range []Engine{EngineBlocking, EngineLifting, EngineDisjoint} {
			full, err := EnumerateDimacsOpts(strings.NewReader(src), DimacsOptions{Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			r, err := EnumerateDimacsOpts(strings.NewReader(src), DimacsOptions{
				Engine: eng, Budget: Budget{MaxCubes: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			wantCut := full.Cover.Len() > 1
			if r.Aborted != wantCut || (wantCut && r.Reason != AbortCubes) || r.Cover.Len() != 1 {
				t.Fatalf("%s/%v: MaxCubes 1 of %d cubes gave aborted=%v reason=%v cubes=%d, want aborted=%v",
					tc.file, eng, full.Cover.Len(), r.Aborted, r.Reason, r.Cover.Len(), wantCut)
			}
		}
	}
}

// checkDimacsAllEngines enumerates src with every DIMACS engine, with the
// simplifier off and on, and fails unless each run is complete, counts
// want and projects to the same set as the first.
func checkDimacsAllEngines(t *testing.T, name, src string, want int64) {
	t.Helper()
	var ref *allsat.Result
	for _, eng := range []Engine{EngineSuccessDriven, EngineBlocking, EngineLifting, EngineDisjoint} {
		for _, smode := range []SimplifyMode{SimplifyOff, SimplifyOn} {
			r, err := EnumerateDimacsOpts(strings.NewReader(src), DimacsOptions{Engine: eng, Simplify: smode})
			if err != nil {
				t.Fatalf("%s/%v/%v: %v", name, eng, smode, err)
			}
			if r.Aborted || r.Count.Cmp(big.NewInt(want)) != 0 {
				t.Fatalf("%s/%v/%v: count %v (aborted %v), want %d",
					name, eng, smode, r.Count, r.Aborted, want)
			}
			if ref == nil {
				ref = r
			} else if !r.Cover.Equal(ref.Cover) {
				t.Fatalf("%s/%v/%v: projected set differs from %v", name, eng, smode, EngineSuccessDriven)
			}
		}
	}
}

func TestEnumerateDimacsErrors(t *testing.T) {
	if _, err := EnumerateDimacs(strings.NewReader("p cnf x\n"), EngineSuccessDriven, nil); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := EnumerateDimacs(strings.NewReader("p cnf 2 0\n"), EngineSuccessDriven, []int{5}); err == nil {
		t.Fatal("expected projection range error")
	}
	if _, err := EnumerateDimacs(strings.NewReader("p cnf 2 0\n"), EngineBDD, nil); err == nil {
		t.Fatal("BDD engine should refuse raw CNF")
	}
}

func TestFacadeImageAndForwardReach(t *testing.T) {
	c := NewCounter(3, true, false)
	img, err := Image(c, Options{}, "000")
	if err != nil {
		t.Fatal(err)
	}
	if img.Count.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("image of {0} should be {0,1}: %v", img.Count)
	}
	init, _ := Target(c, "000")
	img2, err := ImageOf(c, init, Options{Engine: EngineBDD})
	if err != nil {
		t.Fatal(err)
	}
	if img2.Count.Cmp(img.Count) != 0 {
		t.Fatal("ImageOf/BDD disagrees")
	}
	fr, err := ForwardReach(c, Options{}, -1, "000")
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Fixpoint || fr.AllCount.Cmp(big.NewInt(8)) != 0 {
		t.Fatalf("forward reach: %v", fr.AllCount)
	}
	if _, err := Image(c, Options{}, "bad"); err == nil {
		t.Fatal("Image should reject bad pattern")
	}
	if _, err := ForwardReach(c, Options{}, 1, "toolongpattern"); err == nil {
		t.Fatal("ForwardReach should reject bad pattern")
	}
}

func TestFacadeCheckReachable(t *testing.T) {
	c := NewJohnson(4)
	init, _ := Target(c, "0000")
	bad, _ := Target(c, "0101")
	res, err := CheckReachable(c, init, bad, -1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable || !res.Complete {
		t.Fatalf("0101 should be provably unreachable: %+v", res)
	}
	if res.Invariant == nil {
		t.Fatal("unreachable verdict should carry an invariant")
	}
	if err := VerifyInvariant(c, init, bad, res.Invariant, Options{}); err != nil {
		t.Fatalf("facade invariant verification failed: %v", err)
	}
	// k-step one-shot preimage through the facade.
	ks, err := KStepPreimage(c, Options{}, 2, "1100")
	if err != nil {
		t.Fatal(err)
	}
	if ks.Count.Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("k-step preimage count %v, want 3 (states 1100, 1000, 0000)", ks.Count)
	}
	if _, err := KStepPreimage(c, Options{}, 2, "bad!"); err == nil {
		t.Fatal("KStepPreimage should reject bad patterns")
	}
	good, _ := Target(c, "1100")
	res2, err := CheckReachable(c, init, good, -1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Reachable || res2.Trace == nil || res2.Steps != 2 {
		t.Fatalf("1100 should be reachable in 2 steps: %+v", res2)
	}
}

func TestWitnessesFacade(t *testing.T) {
	c := NewCounter(4, true, false)
	wi, err := Witnesses(c, Options{}, "0110") // state 6: witnesses (5,en=1),(6,en=0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		w, ok := wi.Next()
		if !ok {
			break
		}
		if len(w.State) != 4 || len(w.Inputs) != 1 {
			t.Fatalf("witness shape: %v %v", w.State, w.Inputs)
		}
		n++
		if n > 10 {
			t.Fatal("too many witnesses")
		}
	}
	if n == 0 {
		t.Fatal("no witnesses")
	}
	if _, err := Witnesses(c, Options{}, "01"); err == nil {
		t.Fatal("expected width error")
	}
}

func TestSimulateStep(t *testing.T) {
	c := NewCounter(4, true, false)
	_, next, err := SimulateStep(c, []bool{true, false, true, false}, []bool{true})
	if err != nil {
		t.Fatal(err)
	}
	// 5 + 1 = 6 = 0110 (LSB first).
	want := []bool{false, true, true, false}
	for i := range want {
		if next[i] != want[i] {
			t.Fatalf("next = %v, want %v", next, want)
		}
	}
	if _, _, err := SimulateStep(c, []bool{true}, []bool{true}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestGeneratorsExported(t *testing.T) {
	if NewCounter(3, true, false) == nil || NewShiftRegister(3) == nil ||
		NewLFSR(4, 0, 3) == nil || NewJohnson(3) == nil ||
		NewGrayCounter(3) == nil || NewTrafficLight() == nil {
		t.Fatal("generator exports broken")
	}
	if NewSLike(SLikeParams{Seed: 1, Inputs: 2, Latches: 2, Gates: 5}) == nil {
		t.Fatal("SLike export")
	}
	if len(BenchmarkSuite()) == 0 {
		t.Fatal("BenchmarkSuite empty")
	}
	if StateSpace(NewCounter(4, true, false)).Size() != 4 {
		t.Fatal("StateSpace export")
	}
}

// TestEnumerateDimacsRejectsRepeatedProjection: a projection variable
// listed twice, explicitly or on the file's "c proj" line, is an error,
// not a panic in the cube space.
func TestEnumerateDimacsRejectsRepeatedProjection(t *testing.T) {
	const dimacs = "p cnf 3 1\n1 2 3 0\n"
	for _, tc := range []struct {
		name, src string
		proj      []int
	}{
		{"explicit", dimacs, []int{1, 1, 2}},
		{"file line", "c proj 1 1 2\n" + dimacs, nil},
		{"out of range", dimacs, []int{4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := EnumerateDimacsOpts(strings.NewReader(tc.src), DimacsOptions{Engine: EngineBlocking, Proj: tc.proj})
			if err == nil || !strings.Contains(err.Error(), "projection variable") {
				t.Fatalf("err = %v, want a projection error", err)
			}
		})
	}
}

// TestEnumerateDimacsPublishesRunStats: the DIMACS facade publishes the
// same counters as the preimage entry points, memo, kernel, simplify
// and time included.
func TestEnumerateDimacsPublishesRunStats(t *testing.T) {
	data, err := os.ReadFile("testdata/parity5.cnf")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewStatsRegistry("allsat")
	res, err := EnumerateDimacsOpts(strings.NewReader(string(data)), DimacsOptions{
		Engine: EngineSuccessDriven, Workers: 1, Stats: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	published := map[string]string{}
	for _, kv := range reg.Snapshot().Metrics {
		published[kv.Key] = kv.Value
	}
	if got, want := published["cache-lookups"], fmt.Sprint(res.Stats.CacheLookups); got != want || want == "0" {
		t.Errorf("cache-lookups = %q, want the run's %s", got, want)
	}
	for _, key := range []string{"time", "simplify-units-fixed", "simplify-probes", "kernel-unique-lookups", "kernel-cache-lookups"} {
		if _, ok := published[key]; !ok {
			t.Errorf("%q not published", key)
		}
	}
}
