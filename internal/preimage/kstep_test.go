package preimage

import (
	"math/big"
	"testing"

	"allsatpre/internal/bdd"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cube"
	"allsatpre/internal/gen"
	"allsatpre/internal/trans"
)

// reachUnion computes the union of the first k+1 backward layers via the
// iterated engine, as ground truth for the one-shot unrolled version.
func reachUnion(t *testing.T, c *circuit.Circuit, target *cube.Cover, k int) (*cube.Cover, *big.Int) {
	t.Helper()
	if k == 0 {
		// Reach treats maxSteps<=0 as "run to fixpoint"; distance 0 is
		// just the target set itself.
		sp := StateSpace(c)
		man := bdd.NewOrdered(sp.Vars())
		set := man.FromCover(canonicalize(sp, target))
		return man.ISOP(set, sp), man.SatCount(set)
	}
	r, err := Reach(c, target, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r.All, r.AllCount
}

func sameCoverSets(t *testing.T, tag string, a, b *cube.Cover) {
	t.Helper()
	if !a.Equal(b) {
		t.Fatalf("%s: covers differ\nA:\n%sB:\n%s", tag, a, b)
	}
}

func TestKStepEqualsIteratedReach(t *testing.T) {
	cases := []struct {
		c      *circuit.Circuit
		target *cube.Cover
		k      int
	}{
		{gen.Counter(4, true, false), trans.TargetFromPatterns(4, "1111"), 0},
		{gen.Counter(4, true, false), trans.TargetFromPatterns(4, "1111"), 1},
		{gen.Counter(4, true, false), trans.TargetFromPatterns(4, "1111"), 5},
		{gen.Johnson(4), trans.TargetFromPatterns(4, "1111"), 3},
		{gen.ShiftRegister(4), trans.TargetFromPatterns(4, "1001"), 2},
		{gen.TrafficLight(), trans.TargetFromPatterns(5, "010XX"), 3},
		{gen.SLike(gen.SLikeParams{Seed: 91, Inputs: 4, Latches: 4, Gates: 25}),
			trans.TargetFromPatterns(4, "01X0"), 3},
	}
	for _, tc := range cases {
		want, wantCount := reachUnion(t, tc.c, tc.target, tc.k)
		for _, eng := range []Engine{EngineSuccessDriven, EngineBlocking, EngineLifting} {
			r, err := KStepPreimage(tc.c, tc.target, tc.k, Options{Engine: eng})
			if err != nil {
				t.Fatalf("%s k=%d %v: %v", tc.c.Name, tc.k, eng, err)
			}
			if r.Count.Cmp(wantCount) != 0 {
				t.Fatalf("%s k=%d %v: count %v, want %v", tc.c.Name, tc.k, eng, r.Count, wantCount)
			}
			sameCoverSets(t, tc.c.Name, r.States, want)
		}
	}
}

func TestKStepZeroIsTargetItself(t *testing.T) {
	c := gen.Counter(3, true, false)
	target := trans.TargetFromPatterns(3, "101", "010")
	r, err := KStepPreimage(c, target, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Count.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("k=0 should return the target states, got %v", r.Count)
	}
}

func TestKStepGrowsMonotonically(t *testing.T) {
	c := gen.Counter(4, true, false)
	target := trans.TargetFromPatterns(4, "0000")
	man := bdd.NewOrdered(StateSpace(c).Vars())
	prev := bdd.False
	for k := 0; k <= 6; k++ {
		r, err := KStepPreimage(c, target, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		set := man.FromCover(r.States)
		if man.Diff(prev, set) != bdd.False {
			t.Fatalf("k=%d lost states from k-1", k)
		}
		if r.Count.Cmp(big.NewInt(int64(k+1))) != 0 {
			t.Fatalf("k=%d: count %v, want %d", k, r.Count, k+1)
		}
		prev = set
	}
}

func TestKStepErrors(t *testing.T) {
	c := gen.Counter(3, true, false)
	target := trans.TargetFromPatterns(3, "000")
	if _, err := KStepPreimage(c, target, 2, Options{Engine: EngineBDD}); err == nil {
		t.Fatal("BDD engine should be rejected")
	}
	if _, err := KStepPreimage(c, target, -1, Options{}); err == nil {
		t.Fatal("negative k should be rejected")
	}
	if _, err := KStepPreimage(c, trans.TargetFromPatterns(2, "00"), 1, Options{}); err == nil {
		t.Fatal("width mismatch should be rejected")
	}
	if _, err := KStepPreimage(c, target, 1, Options{Engine: Engine(9)}); err == nil {
		t.Fatal("unknown engine should be rejected")
	}
}

func TestKStepEmptyTarget(t *testing.T) {
	c := gen.Counter(3, true, false)
	empty := cube.NewCover(StateSpace(c))
	r, err := KStepPreimage(c, empty, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Count.Sign() != 0 {
		t.Fatal("empty target should have empty k-step preimage")
	}
}
