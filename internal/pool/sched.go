package pool

// The parallel run: one job per subcube on a runtime.Group — the
// server-wide scheduler when Options.Runtime carries one, else a private
// scheduler with the worker count's executors. Enumerators are not
// pinned to executors — a per-run stash hands warm enumerators to
// whichever executor picks the next job, capped at the resolved worker
// count, so a run uses at most that many solver/manager pairs while its
// jobs interleave with every other tenant's on the shared executors.
//
// Deadlock freedom of the blocking stash receive: an executor blocks in
// acquire only when all of the run's enumerators exist and none is
// stashed — each is then held by a job that is currently running on
// some executor and returns it before finishing. If every executor were
// blocked in acquire, no holder would be running and every enumerator
// would be stashed, contradicting the block. So some holder always
// runs, and the stash receive terminates.

import (
	"context"
	"sync"
	"sync/atomic"

	"allsatpre/internal/allsat"
	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/core"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	"allsatpre/internal/partition"
	rt "allsatpre/internal/runtime"
)

// schedRun is the state of one parallel run, shared by Enumerate (fresh
// enumerators built on demand) and Session.Run (the session's persistent
// enumerators, pre-stashed).
type schedRun struct {
	space  *cube.Space
	thresh uint64
	g      *rt.Group

	// f/core build fresh enumerators (Enumerate); rt supplies their
	// solvers and managers from the warm pool and takes them back at the
	// end.
	f    *cnf.Formula
	core core.Options
	rt   *rt.Runtime

	// base literals are assumed before every subcube's guiding-path
	// assumptions (a Session's per-step activation literal); decBase
	// holds each persistent enumerator's decision count at run start,
	// and stopSession cancels the session context on the first abort.
	base        []lit.Lit
	decBase     map[*core.Enumerator]uint64
	stopSession context.CancelFunc

	// stash holds idle enumerators; its capacity is the enumerator cap
	// (the resolved worker count). created counts how many exist, so the
	// end of the run knows how many to drain.
	stash   chan *core.Enumerator
	created atomic.Int32

	pending atomic.Int64
	msgs    chan mergeMsg

	// fails are the failed-assumption patterns recorded so far: a subcube
	// whose assumptions already failed prunes every later subcube it
	// subsumes.
	failMu sync.Mutex
	fails  []partition.FailedPattern

	splits atomic.Uint64
	unsat  atomic.Uint64
	pruned atomic.Uint64
	done   atomic.Uint64
}

// mergeMsg is one finished subcube: its solution snapshot (nil when
// empty) and its search-counter deltas.
type mergeMsg struct {
	snap  *bdd.Snapshot
	stats allsat.Stats
}

func newSchedRun(space *cube.Space, g *rt.Group, workers int, thresh uint64) *schedRun {
	return &schedRun{
		space:  space,
		thresh: thresh,
		g:      g,
		stash:  make(chan *core.Enumerator, workers),
		// A few snapshots per worker of slack, so a merge that falls
		// briefly behind does not stall the executors.
		msgs: make(chan mergeMsg, workers*4),
	}
}

// run submits the subcubes, merges their sets into man as they arrive,
// and waits for the group. The merge is a pure Or over disjoint subcube
// sets. The parent manager honors the node cap by checking after each
// import — once it trips, *dead is set and later snapshots are dropped
// (sound: the set only shrinks); a Session keeps the flag across runs.
func (r *schedRun) run(tasks []partition.Subcube, man *bdd.Manager, maxNodes int, dead *bool) *Result {
	r.pending.Store(int64(len(tasks)))
	r.submit(tasks...)
	set := bdd.False
	var total allsat.Stats
	for m := range r.msgs {
		total.Add(m.stats)
		if m.snap != nil && !*dead {
			set = man.Or(set, man.Import(m.snap))
			if maxNodes > 0 && man.NumNodes() >= maxNodes {
				r.abort(budget.Nodes)
				*dead = true
			}
		}
	}
	reason := r.g.Wait()

	// Every enumerator is idle once the last job finished: fold in their
	// counters and hand fresh managers back to the warm pool (snapshots
	// are deep copies, so the merged set never touches them).
	pst := PoolStats{
		Workers:       cap(r.stash),
		Subcubes:      r.done.Load(),
		Splits:        r.splits.Load(),
		UnsatSubcubes: r.unsat.Load(),
		Pruned:        r.pruned.Load(),
	}
	var kernel bdd.KernelStats
	nodes := 0
	for i := int32(0); i < r.created.Load(); i++ {
		e := <-r.stash
		kernel.Merge(e.Manager().Kernel())
		nodes += e.Manager().NumNodes()
		d := e.Stats().Decisions - r.decBase[e]
		if i == 0 || d > pst.MaxWorkerDecisions {
			pst.MaxWorkerDecisions = d
		}
		if i == 0 || d < pst.MinWorkerDecisions {
			pst.MinWorkerDecisions = d
		}
		if r.decBase == nil { // built by this run, not a Session's
			r.rt.P().ReleaseManager(e.Manager())
			r.rt.P().ReleaseSolver(e.Solver())
		}
	}
	kernel.Merge(man.Kernel())
	total.Kernel = kernel
	total.BDDNodes = nodes + man.NumNodes()
	return &Result{
		Result: core.Result{
			Manager: man,
			Set:     set,
			Stats:   total,
			Aborted: reason != budget.None,
			Reason:  reason,
		},
		Pool: pst,
	}
}

// submit queues one job per subcube; the first is dispatched first.
func (r *schedRun) submit(ts ...partition.Subcube) {
	jobs := make([]func(), len(ts))
	for i, t := range ts {
		jobs[i] = func() { r.process(t) }
	}
	r.g.Go(jobs...)
}

// abort records the run's first abort reason, cancelling the sibling
// jobs; a Session's enumerators poll the session context, so it is
// cancelled too (every abort reason is a session-global condition).
func (r *schedRun) abort(reason budget.Reason) {
	if reason == budget.None {
		return
	}
	r.g.Abort(reason)
	if r.stopSession != nil {
		r.stopSession()
	}
}

// acquire hands out an enumerator: a stashed one if available, a fresh
// one (with a pooled manager) while under the cap, else it blocks until
// a running job returns one — see the deadlock-freedom argument in the
// file comment above.
func (r *schedRun) acquire() *core.Enumerator {
	select {
	case e := <-r.stash:
		return e
	default:
	}
	if int(r.created.Add(1)) <= cap(r.stash) {
		return newEnumerator(r.rt, r.f, r.space, r.core)
	}
	r.created.Add(-1)
	return <-r.stash
}

func (r *schedRun) release(e *core.Enumerator) { r.stash <- e }

// addFail records a failed-assumption pattern. Base literals (activation
// vars, outside the projection space) are stripped first — the base
// holds for the entire run, so a conflict "base + prefix" prunes every
// subcube containing the prefix.
func (r *schedRun) addFail(failed []lit.Lit) {
	kept := failed[:0]
	for _, l := range failed {
		if !hasVar(r.base, l.Var()) {
			kept = append(kept, l)
		}
	}
	if p, ok := partition.PatternOf(r.space, kept); ok {
		r.failMu.Lock()
		r.fails = append(r.fails, p)
		r.failMu.Unlock()
	}
}

func hasVar(lits []lit.Lit, v lit.Var) bool {
	for _, l := range lits {
		if l.Var() == v {
			return true
		}
	}
	return false
}

func (r *schedRun) prunedBy(s partition.Subcube) bool {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	for _, p := range r.fails {
		if p.Prunes(s) {
			return true
		}
	}
	return false
}

// process runs one subcube job. Aborted runs still walk every queued
// job through the fast path so pending always reaches zero and the
// stream is properly closed.
func (r *schedRun) process(t partition.Subcube) {
	r.done.Add(1)
	if r.g.Aborted() {
		r.finish()
		return
	}
	if r.prunedBy(t) {
		r.pruned.Add(1)
		r.finish()
		return
	}
	e := r.acquire()
	buf := t.Assumptions(r.space, append([]lit.Lit(nil), r.base...))
	limit := r.thresh
	if _, _, can := t.Children(r.space); !can {
		limit = 0 // cannot split further: run the subcube to completion
	}
	sub := e.EnumerateUnder(buf, limit)
	if sub.Status == core.SubSplit {
		lo, hi, _ := t.Children(r.space)
		r.splits.Add(1)
		r.release(e)
		if sub.Aborted {
			r.abort(sub.Reason)
		}
		// Two children in, one parent out; the parent is not terminal,
		// so no finish() here.
		r.pending.Add(1)
		r.submit(lo, hi)
		return
	}
	var msg mergeMsg
	msg.stats = sub.Stats
	switch sub.Status {
	case core.SubSAT:
		if sub.Set != bdd.False {
			msg.snap = e.Manager().Export(sub.Set)
		}
	case core.SubUnsatAssumps:
		r.addFail(sub.Failed)
		r.unsat.Add(1)
	case core.SubGlobalUnsat:
		// UNSAT independent of assumptions: the empty pattern subsumes
		// (and prunes) every remaining subcube.
		r.addFail(nil)
	}
	r.release(e)
	if sub.Aborted {
		r.abort(sub.Reason)
	}
	r.msgs <- msg
	r.finish()
}

// finish retires one subcube; the last one closes the stream so the
// merge loop in run can finish.
func (r *schedRun) finish() {
	if r.pending.Add(-1) == 0 {
		close(r.msgs)
	}
}
