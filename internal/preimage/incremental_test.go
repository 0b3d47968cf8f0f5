package preimage

import (
	"fmt"
	"testing"

	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/gen"
	"allsatpre/internal/stats"
	"allsatpre/internal/trans"
)

// compareReach checks the fields the incremental path promises to
// reproduce bit-identically: frontiers (as sorted cube lists), exact
// counts, step count, and the Fixpoint/Aborted verdicts. Stats and
// BDDNodes legitimately differ (persistent managers, session-global
// accounting) and are not compared.
func compareReach(t *testing.T, label string, inc, ref *ReachResult) {
	t.Helper()
	if inc.Steps != ref.Steps {
		t.Fatalf("%s: steps %d, want %d", label, inc.Steps, ref.Steps)
	}
	if inc.Fixpoint != ref.Fixpoint {
		t.Fatalf("%s: fixpoint %v, want %v", label, inc.Fixpoint, ref.Fixpoint)
	}
	if inc.Aborted != ref.Aborted {
		t.Fatalf("%s: aborted %v, want %v", label, inc.Aborted, ref.Aborted)
	}
	if inc.AllCount.Cmp(ref.AllCount) != 0 {
		t.Fatalf("%s: all-count %v, want %v", label, inc.AllCount, ref.AllCount)
	}
	if len(inc.Frontiers) != len(ref.Frontiers) {
		t.Fatalf("%s: %d frontiers, want %d", label, len(inc.Frontiers), len(ref.Frontiers))
	}
	for k := range ref.Frontiers {
		if inc.FrontierCounts[k].Cmp(ref.FrontierCounts[k]) != 0 {
			t.Fatalf("%s: frontier %d count %v, want %v",
				label, k, inc.FrontierCounts[k], ref.FrontierCounts[k])
		}
		ik, rk := inc.Frontiers[k].SortedKeys(), ref.Frontiers[k].SortedKeys()
		if len(ik) != len(rk) {
			t.Fatalf("%s: frontier %d has %d cubes, want %d", label, k, len(ik), len(rk))
		}
		for i := range rk {
			if ik[i] != rk[i] {
				t.Fatalf("%s: frontier %d cube %d = %s, want %s", label, k, i, ik[i], rk[i])
			}
		}
	}
	ia, ra := inc.All.SortedKeys(), ref.All.SortedKeys()
	if len(ia) != len(ra) {
		t.Fatalf("%s: All has %d cubes, want %d", label, len(ia), len(ra))
	}
	for i := range ra {
		if ia[i] != ra[i] {
			t.Fatalf("%s: All cube %d = %s, want %s", label, i, ia[i], ra[i])
		}
	}
}

// TestIncrementalReachMatchesFresh is the incremental-equivalence
// contract over the determinism suite: for every circuit and worker
// count, the session-backed Reach must reproduce the fresh-instance
// Reach bit-for-bit.
func TestIncrementalReachMatchesFresh(t *testing.T) {
	for _, nc := range determinismSuite() {
		target := nc.Target
		ref, err := Reach(nc.Circuit, target, 4, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			inc, err := Reach(nc.Circuit, target, 4, Options{Incremental: true, Parallel: workers})
			if err != nil {
				t.Fatal(err)
			}
			compareReach(t, fmt.Sprintf("%s/w%d", nc.Name, workers), inc, ref)
		}
	}
}

// TestIncrementalReachAblationsMatchFresh repeats the contract under the
// option axes that change the projection order or the frontier handed to
// the next step.
func TestIncrementalReachAblationsMatchFresh(t *testing.T) {
	slike1 := suiteMembers("slike1")[0]
	c, target := slike1.Circuit, slike1.Target
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"input-first", Options{InputFirstOrder: true}},
		{"interleave", Options{Interleave: true}},
	} {
		ref, err := Reach(c, target, 4, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		opts := tc.opts
		opts.Incremental = true
		opts.Parallel = 2
		inc, err := Reach(c, target, 4, opts)
		if err != nil {
			t.Fatal(err)
		}
		compareReach(t, tc.name, inc, ref)
	}
}

func TestIncrementalReachEmptyTarget(t *testing.T) {
	c := gen.Counter(4, true, false)
	empty := trans.TargetFromPatterns(4)
	ref, err := Reach(c, empty, -1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := Reach(c, empty, -1, Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	compareReach(t, "empty-target", inc, ref)
	if !inc.Fixpoint || inc.Steps != 0 || inc.AllCount.Sign() != 0 {
		t.Fatalf("empty target: %+v", inc)
	}
}

// TestIncrementalKStepMatchesFresh: the BFS-union session path must
// reproduce the unrolled-formula KStepPreimage exactly on unbudgeted
// runs — same state cover, same count.
func TestIncrementalKStepMatchesFresh(t *testing.T) {
	for _, nc := range suiteMembers("counter8", "traffic", "slike1") {
		target := nc.Target
		for _, k := range []int{0, 1, 3} {
			ref, err := KStepPreimage(nc.Circuit, target, k, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				inc, err := KStepPreimage(nc.Circuit, target, k,
					Options{Incremental: true, Parallel: workers})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s/k%d/w%d", nc.Name, k, workers)
				if inc.Aborted != ref.Aborted {
					t.Fatalf("%s: aborted %v, want %v", label, inc.Aborted, ref.Aborted)
				}
				if inc.Count.Cmp(ref.Count) != 0 {
					t.Fatalf("%s: count %v, want %v", label, inc.Count, ref.Count)
				}
				ik, rk := inc.States.SortedKeys(), ref.States.SortedKeys()
				if len(ik) != len(rk) {
					t.Fatalf("%s: %d cubes, want %d", label, len(ik), len(rk))
				}
				for i := range rk {
					if ik[i] != rk[i] {
						t.Fatalf("%s: cube %d = %s, want %s", label, i, ik[i], rk[i])
					}
				}
			}
		}
	}
}

func TestIncrementalForwardReachMatchesFresh(t *testing.T) {
	circuits := []gen.NamedCircuit{
		{Name: "counter4", Circuit: gen.Counter(4, true, false)},
		{Name: "johnson4", Circuit: gen.Johnson(4)},
		{Name: "slike1", Circuit: gen.SLike(gen.SLikeParams{Seed: 1, Inputs: 6, Latches: 6, Gates: 60})},
	}
	for _, sc := range sharedGateSuite() {
		circuits = append(circuits, sc.NamedCircuit)
	}
	for _, nc := range circuits {
		nL := len(nc.Circuit.Latches)
		pat := make([]byte, nL)
		for i := range pat {
			pat[i] = '0'
		}
		init := trans.TargetFromPatterns(nL, string(pat))
		ref, err := ForwardReach(nc.Circuit, init, 3, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			inc, err := ForwardReach(nc.Circuit, init, 3,
				Options{Incremental: true, Parallel: workers})
			if err != nil {
				t.Fatal(err)
			}
			compareReach(t, fmt.Sprintf("%s/w%d", nc.Name, workers), inc, ref)
		}
	}
}

// TestIncrementalReachAbortSoundness: under a mid-run or pre-expired
// budget the incremental path must report the abort and stay a sound
// under-approximation of the unbudgeted reach. Bit-identity is not
// promised under abort — the session budget is global, so abort timing
// differs from per-step fresh instances.
func TestIncrementalReachAbortSoundness(t *testing.T) {
	c := gen.SLike(gen.SLikeParams{Seed: 2, Inputs: 8, Latches: 8, Gates: 120})
	target := wideTarget(8)
	full, err := Reach(c, target, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := bdd.NewOrdered(full.StateSpace.Vars())
	fullSet := m.FromCover(full.All)

	for _, bud := range []budget.Budget{
		{MaxDecisions: 10},
		expiredBudget(),
	} {
		for _, workers := range []int{1, 4} {
			inc, err := Reach(c, target, 4, Options{
				Incremental: true, Parallel: workers, Budget: bud,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !inc.Aborted {
				t.Fatalf("w%d: budget %+v not reported as abort", workers, bud)
			}
			if inc.Fixpoint {
				t.Fatalf("w%d: aborted run claimed a fixpoint", workers)
			}
			if m.Diff(m.FromCover(inc.All), fullSet) != bdd.False {
				t.Fatalf("w%d: aborted reach reported states outside the true reach set", workers)
			}
		}
	}
}

func TestCheckReachableIncrementalTrace(t *testing.T) {
	c := gen.Counter(4, true, false)
	init := trans.TargetFromPatterns(4, "0000")
	bad := trans.TargetFromPatterns(4, "1010")
	res, err := CheckReachable(c, init, bad, -1, Options{Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable || !res.Complete || res.Steps != 5 {
		t.Fatalf("incremental trace extraction: %+v", res)
	}
	validateTrace(t, c, init, bad, res.Trace)
}

// TestIncrementalReachPublishesStats: the incr.* keys must appear and
// the retention counters must show the session actually carried state
// across steps (clauses retired on every retarget, encode time saved).
func TestIncrementalReachPublishesStats(t *testing.T) {
	c := gen.SLike(gen.SLikeParams{Seed: 2, Inputs: 8, Latches: 8, Gates: 120})
	reg := stats.NewRegistry("run")
	_, err := Reach(c, wideTarget(8), 3, Options{Incremental: true, Stats: reg})
	if err != nil {
		t.Fatal(err)
	}
	steps := reg.Counter("incr.steps").Load()
	if steps < 2 {
		t.Fatalf("incr.steps = %d, want >= 2", steps)
	}
	if reg.Counter("incr.clauses-added").Load() == 0 {
		t.Error("incr.clauses-added stayed zero")
	}
	if reg.Counter("incr.clauses-retired").Load() == 0 {
		t.Error("incr.clauses-retired stayed zero: retargeting did not retire the old group")
	}
	if reg.Counter("incr.act-vars-retired").Load() == 0 {
		t.Error("incr.act-vars-retired stayed zero")
	}
}
