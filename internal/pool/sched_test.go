package pool

import (
	"math/rand"
	"testing"

	"allsatpre/internal/core"
	rt "allsatpre/internal/runtime"
	"allsatpre/internal/stats"
)

// TestSchedMatchesSequential: scheduler mode — shared executors, warm
// pooled solvers/managers — must stay bit-identical to the sequential
// enumerator at every worker cap, and keep matching when the pool is
// reused run after run (the warm-reuse equivalence the runtime's Reset
// contract promises).
func TestSchedMatchesSequential(t *testing.T) {
	reg := stats.NewRegistry("sched-test")
	sched := rt.NewScheduler(4, reg)
	defer sched.Close()
	run := &rt.Runtime{Pool: rt.NewPool(rt.PoolOptions{Stats: reg}), Sched: sched, Tenant: "t0"}

	rng := rand.New(rand.NewSource(6006))
	for iter := 0; iter < 25; iter++ {
		nVars := 5 + rng.Intn(7)
		f := randomFormula(rng, nVars, 1+rng.Intn(4*nVars), 3)
		nProj := 3 + rng.Intn(nVars-2)
		vars := rng.Perm(nVars)[:nProj]
		space := projSpace(vars...)

		want := core.EnumerateToResult(f.Clone(), space, core.DefaultOptions())
		for _, workers := range []int{2, 4, 8} {
			got := EnumerateToResult(f.Clone(), space, Options{
				Workers: workers,
				Core:    core.DefaultOptions(),
				Runtime: run,
			})
			if got.Count.Cmp(want.Count) != 0 {
				t.Fatalf("iter %d workers %d: count %v, want %v",
					iter, workers, got.Count, want.Count)
			}
			if !coversIdentical(got.Cover, want.Cover) {
				t.Fatalf("iter %d workers %d: cover differs\n got: %v\nwant: %v",
					iter, workers, got.Cover, want.Cover)
			}
		}
	}
}

// TestSchedDynamicSplit forces re-splits in scheduler mode (children are
// submitted as fresh jobs rather than deque pushes) and checks the
// result stays exact.
func TestSchedDynamicSplit(t *testing.T) {
	reg := stats.NewRegistry("sched-split")
	sched := rt.NewScheduler(3, reg)
	defer sched.Close()
	run := &rt.Runtime{Pool: rt.NewPool(rt.PoolOptions{Stats: reg}), Sched: sched}

	rng := rand.New(rand.NewSource(7007))
	splits := uint64(0)
	for iter := 0; iter < 15; iter++ {
		nVars := 8 + rng.Intn(5)
		f := randomFormula(rng, nVars, 2*nVars, 3)
		vars := rng.Perm(nVars)[:6]
		space := projSpace(vars...)

		want := core.EnumerateToResult(f.Clone(), space, core.DefaultOptions())
		got := enumerate(f.Clone(), space, Options{
			Workers: 4,
			Core:    core.DefaultOptions(),
			Runtime: run,
		}, 0, 8)
		if got.Manager.SatCount(got.Set).Cmp(want.Count) != 0 {
			t.Fatalf("iter %d: count %v, want %v",
				iter, got.Manager.SatCount(got.Set), want.Count)
		}
		splits += got.Pool.Splits
		got.Release()
	}
	if splits == 0 {
		t.Fatal("threshold 8 never forced a dynamic split in scheduler mode")
	}
}

// TestSchedSharedExecutorsTwoRequests interleaves two concurrent pooled
// requests from different tenants on one shared scheduler and checks
// both come back exact — the multi-tenant case the scheduler exists for.
func TestSchedSharedExecutorsTwoRequests(t *testing.T) {
	sched := rt.NewScheduler(2, nil)
	defer sched.Close()
	pl := rt.NewPool(rt.PoolOptions{})

	rng := rand.New(rand.NewSource(8008))
	f1 := randomFormula(rng, 10, 25, 3)
	f2 := randomFormula(rng, 11, 30, 3)
	s1 := projSpace(0, 2, 4, 6, 8)
	s2 := projSpace(1, 3, 5, 7, 9)
	want1 := core.EnumerateToResult(f1.Clone(), s1, core.DefaultOptions())
	want2 := core.EnumerateToResult(f2.Clone(), s2, core.DefaultOptions())

	done := make(chan string, 2)
	go func() {
		got := EnumerateToResult(f1.Clone(), s1, Options{
			Workers: 4, Core: core.DefaultOptions(),
			Runtime: &rt.Runtime{Pool: pl, Sched: sched, Tenant: "a"},
		})
		if !coversIdentical(got.Cover, want1.Cover) {
			done <- "tenant a: cover differs from sequential"
			return
		}
		done <- ""
	}()
	go func() {
		got := EnumerateToResult(f2.Clone(), s2, Options{
			Workers: 4, Core: core.DefaultOptions(),
			Runtime: &rt.Runtime{Pool: pl, Sched: sched, Tenant: "b"},
		})
		if !coversIdentical(got.Cover, want2.Cover) {
			done <- "tenant b: cover differs from sequential"
			return
		}
		done <- ""
	}()
	for i := 0; i < 2; i++ {
		if msg := <-done; msg != "" {
			t.Fatal(msg)
		}
	}
}
