package runtime

import (
	"context"
	goruntime "runtime"
	"sync"
	"sync/atomic"

	"allsatpre/internal/budget"
)

// Group runs one call's fan-out — the subcube jobs of a parallel
// enumeration, the depth loops of a parallel BMC sweep — as jobs on a
// Scheduler, and owns the state the jobs share: a context derived from
// the caller's, the first abort reason, and the wait for every job to
// finish. It is the one place the first-abort-cancels-siblings rule
// lives: Abort records the first non-None reason and cancels the group
// context, which every job threads into its budget, so the siblings stop
// at their next poll.
//
// With a Runtime that carries a scheduler, the jobs join its queues
// under the runtime's tenant and fair-share the executors with every
// other in-flight call. Otherwise (nil Runtime or nil Sched) the group
// starts a private scheduler and closes it in Wait, so no goroutine
// outlives the call.
//
// A private scheduler runs min(workers, GOMAXPROCS) executors. More
// would only time-slice the same cores, and every running job holds its
// own enumerator, solver or checker: oversubscribed executors build more
// of them and reuse each one's learning over fewer jobs, without adding
// parallelism. The worker count still sets the caller's split depth and
// enumerator cap, as it does on a shared scheduler.
//
// Nesting rule: a job must never Wait on a group whose scheduler it runs
// on — with every executor blocked in such a Wait, no job could finish.
// Jobs may Go further jobs on their own group (dynamic splits).
type Group struct {
	sched   *Scheduler
	private bool // sched was started for this group; Wait closes it
	tenant  string
	parent  context.Context
	ctx     context.Context
	cancel  context.CancelFunc
	reason  atomic.Int32
	jobs    sync.WaitGroup
}

// NewGroup starts a group under the parent context (nil means
// Background). workers bounds the private scheduler used when r has
// none; it is ignored on a shared scheduler.
func NewGroup(r *Runtime, parent context.Context, workers int) *Group {
	if parent == nil {
		parent = context.Background()
	}
	g := &Group{parent: parent}
	g.ctx, g.cancel = context.WithCancel(parent)
	if s := r.S(); s != nil {
		g.sched, g.tenant = s, r.Tenant
	} else {
		g.sched, g.private = NewScheduler(min(workers, goruntime.GOMAXPROCS(0)), nil), true
	}
	return g
}

// Ctx is the group context: done once the parent is, once a job calls
// Abort, or once Wait returns. Jobs thread it into their budgets.
func (g *Group) Ctx() context.Context { return g.ctx }

// Go queues jobs as one batch; jobs[0] is dispatched first (see
// Scheduler.Submit). Calling it from a running job of the same group is
// allowed; calling it after Wait returned is not.
func (g *Group) Go(jobs ...func()) {
	g.jobs.Add(len(jobs))
	wrapped := make([]func(), len(jobs))
	for i, job := range jobs {
		wrapped[i] = func() {
			defer g.jobs.Done()
			job()
		}
	}
	g.sched.Submit(g.tenant, wrapped...)
}

// Abort records r as the group's reason if it is the first non-None one
// and cancels the group context. None is ignored, so a job can pass its
// engine's stop reason unconditionally.
func (g *Group) Abort(r budget.Reason) {
	if r != budget.None && g.reason.CompareAndSwap(0, int32(r)) {
		g.cancel()
	}
}

// Aborted reports whether a reason has been recorded.
func (g *Group) Aborted() bool { return g.reason.Load() != 0 }

// Reason returns the first recorded reason (None while none is).
func (g *Group) Reason() budget.Reason { return budget.Reason(g.reason.Load()) }

// Wait blocks until every job has finished, closes a private scheduler,
// cancels the group context, and returns the group's reason. A parent
// context that was cancelled while no job recorded a reason becomes
// budget.Cancelled — jobs that saw the cancelled context and skipped
// their work must not make the run look complete. Safe to call more
// than once.
func (g *Group) Wait() budget.Reason {
	g.jobs.Wait()
	if g.private {
		g.sched.Close()
	}
	if g.parent.Err() != nil {
		g.reason.CompareAndSwap(0, int32(budget.Cancelled))
	}
	g.cancel()
	return g.Reason()
}
