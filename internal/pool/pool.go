// Package pool runs the success-driven enumerator (internal/core) in
// parallel. The projection space is split into guiding-path subcubes
// (internal/partition), and each subcube runs as one job on a
// runtime.Group: the shared server-wide scheduler when the caller's
// Runtime carries one, else a private scheduler that lives for the call.
// A job borrows an enumerator — its own solver trail, learned clauses,
// memo table, and single-threaded BDD manager — from a per-run stash
// capped at the worker count, and re-splits any subcube whose
// enumeration exceeds the work threshold into two child jobs. Jobs run
// LIFO per tenant, so the splits are explored depth first. Per-subcube
// solution sets are exported as immutable BDD snapshots and published
// over a channel together with the search-counter deltas; the calling
// goroutine rebuilds the union in a parent manager. Because the subcubes
// are pairwise disjoint, the merge is a pure Or with no cancellation,
// and BDD canonicity makes the merged set — and the ISOP cover extracted
// from it — bit-identical to the sequential enumeration for every worker
// count.
//
// Abort protocol: the shared budget.Budget stays the single source of
// truth. Each enumerator polls its own checker; the first abort records
// the reason in the group and cancels the group context, so siblings
// stop at their next poll. Partial per-subcube sets still merge, and the
// result reports Aborted with the first reason — a sound
// under-approximation, exactly like the sequential engine.
package pool

import (
	"runtime"
	"sync/atomic"

	"allsatpre/internal/allsat"
	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/core"
	"allsatpre/internal/cube"
	"allsatpre/internal/partition"
	rt "allsatpre/internal/runtime"
	"allsatpre/internal/sat"
	"allsatpre/internal/stats"
)

// DefaultSplitThreshold is the per-subcube decision cap before a dynamic
// re-split: coarse enough that the split bookkeeping is noise, fine
// enough that one pathological subcube cannot serialize the run.
const DefaultSplitThreshold = 4096

// Options configures a pooled enumeration.
type Options struct {
	// Workers is the worker count; <= 0 selects runtime.GOMAXPROCS(0).
	// One worker short-circuits to the plain sequential enumerator.
	Workers int
	// Core configures each worker's enumerator. Core.Budget is ignored;
	// pass the run budget in Budget.
	Core core.Options
	// Budget bounds the whole pooled run. MaxDecisions is enforced
	// globally via a shared atomic counter; MaxBDDNodes applies to each
	// worker's manager and to the merged parent manager individually.
	Budget budget.Budget
	// Stats, when non-nil, receives the pool.* counters and gauges.
	Stats *stats.Registry
	// Runtime, when non-nil, supplies warm solver/manager pairs from its
	// pool and — when it also carries a scheduler — runs the subcube
	// jobs on the shared server-wide executors. Nil (or a nil Sched)
	// means a private scheduler with Workers executors for the call;
	// nil Pool means fresh construction.
	Runtime *rt.Runtime
}

// PoolStats aggregates the pool's own bookkeeping (the solver counters
// are in the allsat.Stats of the result).
type PoolStats struct {
	// Workers is the effective worker count.
	Workers int
	// Subcubes counts work units processed, including pruned ones.
	Subcubes uint64
	// Splits counts dynamic re-splits (each replaces one subcube by two).
	Splits uint64
	// UnsatSubcubes counts subcubes whose assumptions conflicted with the
	// formula (the assumption-aware UNSAT path, not global UNSAT).
	UnsatSubcubes uint64
	// Pruned counts subcubes skipped because a recorded failed-assumption
	// pattern subsumed them.
	Pruned uint64
	// MaxWorkerDecisions/MinWorkerDecisions expose load imbalance: the
	// decision counts of the busiest and laziest enumerators.
	MaxWorkerDecisions uint64
	MinWorkerDecisions uint64
}

// Result is the merged outcome of a pooled enumeration. In the embedded
// core.Result, Manager is the parent manager the per-subcube sets were
// merged into (its variable order is the projection order) and Set their
// union; Stats sums the enumerators' search counters, with BDDNodes
// totalling every manager (enumerators + parent) as the run's memory
// proxy and Kernel merging all kernel counters; Aborted is set when any
// job or the merger tripped the budget, with Reason the first cause.
type Result struct {
	core.Result
	// Pool holds the pool's own counters.
	Pool PoolStats
	// rt is the runtime the parent manager was acquired from, so Release
	// can return it (nil without a runtime and for Session results,
	// where Release degrades to clearing the references).
	rt *rt.Runtime
}

// Release returns the merged-set manager to the runtime pool the run
// was configured with (a no-op without one) and clears Manager/Set.
// Call it after the last use of either; not for Session results, whose
// manager persists across runs.
func (r *Result) Release() {
	if r == nil || r.Manager == nil {
		return
	}
	m := r.Manager
	r.Manager = nil
	r.Set = bdd.False
	r.rt.P().ReleaseManager(m)
}

// Enumerate runs the pooled enumeration and merges the per-subcube sets
// into a fresh parent manager. With one worker (or an empty projection
// space, where there is nothing to partition) it degrades to the plain
// sequential enumerator — the reference the determinism tests compare
// every other worker count against.
func Enumerate(f *cnf.Formula, space *cube.Space, opts Options) *Result {
	return enumerate(f, space, opts, 0, DefaultSplitThreshold)
}

// enumerate is Enumerate with the static split depth (0 = automatic: the
// smallest k with 2^k >= 4*Workers subcubes) and the dynamic re-split
// decision cap as parameters, so tests can force coarse splits and
// frequent re-splitting.
func enumerate(f *cnf.Formula, space *cube.Space, opts Options, k int, thresh uint64) *Result {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opts.Budget = opts.Budget.Materialize()
	if workers == 1 || space.Size() == 0 {
		return sequential(f, space, opts)
	}

	// Jobs share the group context so the first abort stops the siblings;
	// the global decision cap moves into a shared atomic polled through
	// the enumerator's OnDecision hook.
	g := rt.NewGroup(opts.Runtime, opts.Budget.Ctx, workers)
	maxDec := opts.Budget.MaxDecisions
	co := opts.Core
	co.Budget = opts.Budget
	co.Budget.Ctx = g.Ctx()
	co.Budget.MaxDecisions = 0
	var decisions atomic.Uint64
	if maxDec > 0 {
		co.OnDecision = func() budget.Reason {
			if decisions.Add(1) > maxDec {
				return budget.Decisions
			}
			return budget.None
		}
	}

	if k <= 0 {
		k = partition.PrefixDepth(space, workers, 0)
	}
	r := newSchedRun(space, g, workers, thresh)
	r.f, r.core, r.rt = f, co, opts.Runtime
	mergeDead := false
	res := r.run(partition.Split(space, k), opts.Runtime.P().AcquireManager(space.Vars(), 0),
		opts.Budget.MaxBDDNodes, &mergeDead)
	res.rt = opts.Runtime
	publish(opts.Stats, res.Pool)
	return res
}

// sequential is the one-worker degenerate case: the plain enumerator,
// with the pool bookkeeping reduced to a worker-count gauge.
func sequential(f *cnf.Formula, space *cube.Space, opts Options) *Result {
	co := opts.Core
	co.Budget = opts.Budget
	e := newEnumerator(opts.Runtime, f, space, co)
	res := &Result{Result: *e.Enumerate(), Pool: PoolStats{Workers: 1, Subcubes: 1}, rt: opts.Runtime}
	opts.Runtime.P().ReleaseSolver(e.Solver())
	publish(opts.Stats, res.Pool)
	return res
}

// newEnumerator builds a one-shot enumerator on a warm solver and manager
// from the runtime's pool (fresh ones without a pool). The caller returns
// the solver once the run is over; the manager goes back with the result.
func newEnumerator(r *rt.Runtime, f *cnf.Formula, space *cube.Space, co core.Options) *core.Enumerator {
	p := r.P()
	co.Manager = p.AcquireManager(space.Vars(), 0)
	return core.New(p.AcquireSolver(sat.Options{}, uint64(f.NumVars)*64), f, space, co)
}

// EnumerateToResult converts a pooled run to the shared allsat result
// shape, extracting the cover from the merged set under the budget's cube
// cap and counting it exactly like the sequential core.EnumerateToResult.
func EnumerateToResult(f *cnf.Formula, space *cube.Space, opts Options) *allsat.Result {
	r := Enumerate(f, space, opts)
	out := r.Extract(space, opts.Budget.MaxCubes)
	out.Count = r.Manager.SatCount(r.Set)
	r.Release()
	return out
}

// publish mirrors the pool counters into the stats registry under the
// pool.* keys.
func publish(reg *stats.Registry, p PoolStats) {
	if reg == nil {
		return
	}
	reg.SetGauge("pool.workers", int64(p.Workers))
	reg.Counter("pool.subcubes").Add(p.Subcubes)
	reg.Counter("pool.splits").Add(p.Splits)
	reg.Counter("pool.unsat-subcubes").Add(p.UnsatSubcubes)
	reg.Counter("pool.pruned-subcubes").Add(p.Pruned)
	reg.SetGauge("pool.max-worker-decisions", int64(p.MaxWorkerDecisions))
	reg.SetGauge("pool.min-worker-decisions", int64(p.MinWorkerDecisions))
	if p.MaxWorkerDecisions > 0 {
		reg.SetFloatGauge("pool.imbalance",
			float64(p.MaxWorkerDecisions-p.MinWorkerDecisions)/float64(p.MaxWorkerDecisions))
	}
}
