package allsat

// Mid-stream cancellation tests: a consumer that cancels the budget
// context after N cubes must see the iterator stop promptly with
// Reason() == budget.Cancelled, with the sibling workers wound down and
// no goroutines left behind. This is the contract the streaming service
// leans on to abort solves when a client disconnects.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	rt "allsatpre/internal/runtime"
)

// pairsFormula builds (x0 v x1)(x2 v x3)...(x_{2n-2} v x_{2n-1}) over
// the full 2n-variable projection. Its minimum disjoint cover is the
// product of the per-pair covers {1X, 01} — 2^n cubes — so cancelling
// after a handful of cubes is guaranteed to strike mid-enumeration.
func pairsFormula(pairs int) (*cnf.Formula, *cube.Space) {
	f := cnf.New(2 * pairs)
	vars := make([]lit.Var, 2*pairs)
	for i := 0; i < pairs; i++ {
		f.Add(lit.Pos(lit.Var(2*i)), lit.Pos(lit.Var(2*i+1)))
	}
	for i := range vars {
		vars[i] = lit.Var(i)
	}
	return f, cube.NewSpace(vars)
}

// waitGoroutines polls until the goroutine count returns to the
// baseline taken before the iterator was built.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines stuck at %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDisjointIteratorCancelMidStream(t *testing.T) {
	f, space := pairsFormula(18) // >= 2^18 disjoint cubes
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	it := NewDisjointIterator(f, space, Options{Budget: budget.Budget{Ctx: ctx}})

	var got []cube.Cube
	for i := 0; i < 5; i++ {
		c, ok := it.Next()
		if !ok {
			t.Fatalf("stream dried up after %d cubes (%v)", i, it.Reason())
		}
		got = append(got, c.Clone())
	}
	cancel()
	// ChronoEnum checks the budget at every cube boundary, so the very
	// next call must stop — no buffering in the sequential iterator.
	if _, ok := it.Next(); ok {
		t.Fatal("iterator produced a cube after cancellation")
	}
	if it.Reason() != budget.Cancelled {
		t.Fatalf("reason = %v, want %v", it.Reason(), budget.Cancelled)
	}
	// The prefix delivered before the cut must still be pairwise disjoint.
	for i := range got {
		for j := i + 1; j < len(got); j++ {
			if !got[i].Disjoint(got[j]) {
				t.Fatalf("cubes %v and %v overlap", got[i], got[j])
			}
		}
	}
}

func TestParallelDisjointIteratorCancelMidStream(t *testing.T) {
	baseline := runtime.NumGoroutine()
	f, space := pairsFormula(18)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	it := NewEngineIterator(f, space, Options{
		Workers: 4, Budget: budget.Budget{Ctx: ctx},
	}, Disjoint).(*ParallelIterator)

	for i := 0; i < 8; i++ {
		if _, ok := it.Next(); !ok {
			t.Fatalf("stream dried up after %d cubes (%v)", i, it.Reason())
		}
	}
	cancel()
	// Drain whatever the workers had buffered; the channel must close.
	drained := 0
	for {
		_, ok := it.Next()
		if !ok {
			break
		}
		if drained++; drained > 1024 {
			t.Fatalf("workers still producing %d cubes after cancel", drained)
		}
	}
	if it.Reason() != budget.Cancelled {
		t.Fatalf("reason = %v, want %v", it.Reason(), budget.Cancelled)
	}
	if _, ok := it.Next(); ok {
		t.Fatal("Next succeeded after the cancellation drain")
	}
	it.Stop()
	// All workers, the feed goroutine, and the closer must be gone.
	waitGoroutines(t, baseline)
}

func TestParallelIteratorCancelReleasesWorkers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	f, space := pairsFormula(15)
	ctx, cancel := context.WithCancel(context.Background())
	it := NewParallelIterator(f, space, Options{
		Workers: 4, Budget: budget.Budget{Ctx: ctx},
	}, false)
	if _, ok := it.Next(); !ok {
		t.Fatalf("no first cube (%v)", it.Reason())
	}
	// Cancel without draining — the abandoning-client shape. Stop is the
	// only call the consumer still owes the iterator.
	cancel()
	it.Stop()
	if it.Reason() != budget.Cancelled {
		t.Fatalf("reason = %v, want %v", it.Reason(), budget.Cancelled)
	}
	waitGoroutines(t, baseline)
}

// TestParallelCancelledBeforeCall: a parallel run whose context is
// cancelled before the call does no work, and must say so — Aborted with
// budget.Cancelled, exactly like the sequential engines — rather than
// return an empty cover that looks complete. Checked on a private
// scheduler (nil runtime) and on a shared one.
func TestParallelCancelledBeforeCall(t *testing.T) {
	f, space := pairsFormula(8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	type outcome struct {
		aborted bool
		reason  budget.Reason
	}
	drain := func(it *ParallelIterator) outcome {
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		it.Stop()
		return outcome{it.Reason() != budget.None, it.Reason()}
	}
	cases := []struct {
		name string
		run  func(Options) outcome
	}{
		{"blocking", func(o Options) outcome {
			r := EnumerateBlocking(f.Clone(), space, o)
			return outcome{r.Aborted, r.Reason}
		}},
		{"lifting", func(o Options) outcome {
			r := EnumerateLifting(f.Clone(), space, o)
			return outcome{r.Aborted, r.Reason}
		}},
		{"disjoint", func(o Options) outcome {
			r := EnumerateDisjoint(f.Clone(), space, o)
			return outcome{r.Aborted, r.Reason}
		}},
		{"iterator", func(o Options) outcome {
			return drain(NewParallelIterator(f.Clone(), space, o, false))
		}},
		{"disjoint-iterator", func(o Options) outcome {
			return drain(NewEngineIterator(f.Clone(), space, o, Disjoint).(*ParallelIterator))
		}},
	}
	sched := rt.NewScheduler(2, nil)
	defer sched.Close()
	for _, run := range []struct {
		name string
		rt   *rt.Runtime
	}{
		{"private", nil},
		{"shared", &rt.Runtime{Sched: sched, Tenant: "t"}},
	} {
		for _, tc := range cases {
			baseline := runtime.NumGoroutine()
			got := tc.run(Options{Workers: 4, Budget: budget.Budget{Ctx: ctx}, Runtime: run.rt})
			if !got.aborted || got.reason != budget.Cancelled {
				t.Errorf("%s/%s: aborted=%v reason=%v, want a cancelled abort",
					run.name, tc.name, got.aborted, got.reason)
			}
			waitGoroutines(t, baseline)
		}
	}
}
