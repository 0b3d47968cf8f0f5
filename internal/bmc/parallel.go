package bmc

import (
	"sync"
	"sync/atomic"

	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cube"
	"allsatpre/internal/preimage"
	rt "allsatpre/internal/runtime"
	"allsatpre/internal/sat"
)

// CheckAt solves exactly depth k, unrolling frames as needed and reusing
// the incremental solver. found reports a counterexample at that exact
// depth; aborted reports a budget trip (the depth is then undetermined).
func (ck *Checker) CheckAt(k int) (found bool, trace *preimage.Trace, aborted bool, reason budget.Reason) {
	ck.ensureFrames(k)
	act := ck.badActivator(k)
	switch ck.s.Solve(act) {
	case sat.Sat:
		return true, ck.extractTrace(k), false, budget.None
	case sat.Unsat:
		return false, nil, false, budget.None
	default:
		return false, nil, true, ck.s.StopReason()
	}
}

// depth outcome codes for the parallel sweep.
const (
	depthPending = iota
	depthUnsat
	depthSat
	depthAborted
)

type depthOutcome struct {
	status int
	trace  *preimage.Trace
	reason budget.Reason
}

// CheckParallel sweeps depths 0..bound across opts.Workers checkers,
// each with its own solver and unrolling. Workers claim depths from a
// shared counter, record a shared minimum counterexample depth, and skip
// any depth at or beyond it, so the sweep never spends work past the
// answer. The Reachable/Depth outcome is identical to the sequential
// CheckTo — the shortest counterexample depth is certified by UNSAT
// answers at every smaller depth — though the trace may be a different
// (equally valid) witness of that depth, and learnt clauses are per
// worker rather than carried across every bound.
//
// The budget applies per worker solver except for cancellation and
// deadline, which are shared: each checker's depth loop is one
// runtime.Group job, the first to trip cancels the siblings, and the
// result reports the first reason.
func CheckParallel(c *circuit.Circuit, init, bad *cube.Cover, bound int, opts Options) (*Result, error) {
	workers := opts.Workers
	if workers > bound+1 {
		workers = bound + 1
	}
	if workers <= 1 {
		seq := opts
		seq.Workers = 0
		return CheckOpts(c, init, bad, bound, seq)
	}
	// One job per checker on a private scheduler; the group context is
	// the shared cancellation, and the group keeps the first abort reason.
	bud := opts.Budget.Materialize()
	g := rt.NewGroup(nil, bud.Ctx, workers)
	wopts := opts
	wopts.Workers = 0
	wopts.Budget = bud
	wopts.Budget.Ctx = g.Ctx()

	outcomes := make([]depthOutcome, bound+1)
	var nextDepth atomic.Int64
	bestSAT := atomic.Int64{}
	bestSAT.Store(int64(bound) + 1)

	var (
		mu      sync.Mutex
		solves  int
		stats   sat.Stats
		initErr error
	)
	depthLoop := func() {
		ck, err := NewOpts(c, init, bad, wopts)
		if err != nil {
			mu.Lock()
			if initErr == nil {
				initErr = err
			}
			mu.Unlock()
			g.Abort(budget.Cancelled) // stop the siblings; the error is returned below
			return
		}
		nSolves := 0
		for {
			d := int(nextDepth.Add(1) - 1)
			if d > bound || int64(d) >= bestSAT.Load() || g.Ctx().Err() != nil {
				break
			}
			nSolves++
			found, trace, aborted, reason := ck.CheckAt(d)
			switch {
			case aborted:
				outcomes[d] = depthOutcome{status: depthAborted, reason: reason}
				g.Abort(reason)
			case found:
				outcomes[d] = depthOutcome{status: depthSat, trace: trace}
				for {
					cur := bestSAT.Load()
					if int64(d) >= cur || bestSAT.CompareAndSwap(cur, int64(d)) {
						break
					}
				}
			default:
				outcomes[d] = depthOutcome{status: depthUnsat}
			}
			if aborted {
				break
			}
		}
		mu.Lock()
		solves += nSolves
		addSatStats(&stats, ck.s.Stats())
		mu.Unlock()
	}
	jobs := make([]func(), workers)
	for w := range jobs {
		jobs[w] = depthLoop
	}
	g.Go(jobs...)
	groupReason := g.Wait()
	if initErr != nil {
		return nil, initErr
	}

	// Merge in depth order, mirroring the sequential sweep: UNSAT extends
	// the certified prefix, SAT on a fully certified prefix is the
	// shortest counterexample, and a hole (aborted, or never solved
	// because a sibling cancelled the run) ends the sweep as an abort.
	res := &Result{Depth: -1, Solves: solves, Stats: stats}
	for d := 0; d <= bound; d++ {
		switch outcomes[d].status {
		case depthUnsat:
			res.Depth = d
		case depthSat:
			res.Reachable = true
			res.Depth = d
			res.Trace = outcomes[d].trace
			return res, nil
		default:
			res.Aborted = true
			res.AbortReason = outcomes[d].reason
			if res.AbortReason == budget.None {
				res.AbortReason = groupReason
			}
			return res, nil
		}
	}
	return res, nil
}

// addSatStats accumulates solver counters across workers (MaxTrail is a
// per-solver high-water mark, so it merges by maximum).
func addSatStats(dst *sat.Stats, s sat.Stats) {
	dst.Decisions += s.Decisions
	dst.Propagations += s.Propagations
	dst.Conflicts += s.Conflicts
	dst.Restarts += s.Restarts
	dst.Learned += s.Learned
	dst.LearnedLits += s.LearnedLits
	dst.MinimizedOut += s.MinimizedOut
	dst.Reduced += s.Reduced
	if s.MaxTrail > dst.MaxTrail {
		dst.MaxTrail = s.MaxTrail
	}
}
