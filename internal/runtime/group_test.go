package runtime

import (
	"context"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"allsatpre/internal/budget"
	"allsatpre/internal/stats"
)

// TestSchedulerBatchOrder: a batch is dispatched first job first, and
// the executor cannot start any of it before the whole batch is queued.
func TestSchedulerBatchOrder(t *testing.T) {
	s := NewScheduler(1, nil)
	defer s.Close()
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	jobs := make([]func(), 5)
	for i := range jobs {
		wg.Add(1)
		jobs[i] = func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			wg.Done()
		}
	}
	s.Submit("t", jobs...)
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("dispatch order %v, want 0..4", order)
		}
	}
}

// TestGroupPrivateSchedulerExits: without a runtime scheduler the group
// runs its jobs on a private one, and Wait leaves no goroutine behind.
func TestGroupPrivateSchedulerExits(t *testing.T) {
	baseline := goruntime.NumGoroutine()
	g := NewGroup(nil, nil, 3)
	var ran atomic.Int32
	for i := 0; i < 10; i++ {
		g.Go(func() {
			// A job may queue follow-up jobs on its own group.
			if ran.Add(1) == 1 {
				g.Go(func() { ran.Add(1) })
			}
		})
	}
	if r := g.Wait(); r != budget.None {
		t.Fatalf("reason %v, want none", r)
	}
	if n := ran.Load(); n != 11 {
		t.Fatalf("%d jobs ran, want 11", n)
	}
	if g.Ctx().Err() == nil {
		t.Fatal("group context still live after Wait")
	}
	deadline := time.Now().Add(10 * time.Second)
	for goruntime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines stuck at %d, baseline %d", goruntime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupFirstAbortWins: None is ignored, the first real reason sticks
// and cancels the group context, later reasons are dropped.
func TestGroupFirstAbortWins(t *testing.T) {
	g := NewGroup(nil, nil, 1)
	g.Abort(budget.None)
	if g.Aborted() || g.Ctx().Err() != nil {
		t.Fatal("Abort(None) must not abort the group")
	}
	g.Abort(budget.Decisions)
	g.Abort(budget.Nodes)
	if g.Ctx().Err() == nil {
		t.Fatal("Abort did not cancel the group context")
	}
	if r := g.Wait(); r != budget.Decisions {
		t.Fatalf("reason %v, want the first one (decisions)", r)
	}
}

// TestGroupCancelledParent: jobs that skip their work because the
// parent context was already cancelled must not make the run look
// complete — Wait reports budget.Cancelled.
func TestGroupCancelledParent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := NewGroup(nil, ctx, 2)
	for i := 0; i < 4; i++ {
		g.Go(func() {
			if g.Ctx().Err() == nil {
				t.Error("job saw a live context under a cancelled parent")
			}
		})
	}
	if r := g.Wait(); r != budget.Cancelled {
		t.Fatalf("reason %v, want cancelled", r)
	}
}

// TestGroupSharedScheduler: with a runtime scheduler the jobs run there
// (counted by runtime.sched-jobs), and Wait leaves the shared scheduler
// running for the next call.
func TestGroupSharedScheduler(t *testing.T) {
	reg := stats.NewRegistry("group-test")
	s := NewScheduler(2, reg)
	defer s.Close()
	r := &Runtime{Sched: s, Tenant: "a"}
	for call := 0; call < 2; call++ {
		g := NewGroup(r, nil, 8)
		var ran atomic.Int32
		for i := 0; i < 3; i++ {
			g.Go(func() { ran.Add(1) })
		}
		g.Wait()
		if ran.Load() != 3 {
			t.Fatalf("call %d: %d jobs ran, want 3", call, ran.Load())
		}
	}
	if n := reg.Counter("runtime.sched-jobs").Load(); n != 6 {
		t.Fatalf("runtime.sched-jobs = %d, want 6", n)
	}
}
