package preimage

import (
	"fmt"
	"math/big"

	"allsatpre/internal/allsat"
	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cube"
)

// ReachResult is the outcome of iterated preimage computation (backward
// reachability from a target set).
type ReachResult struct {
	// StateSpace is the canonical state space.
	StateSpace *cube.Space
	// Frontiers[k] is the set of states first reached at distance k from
	// the target (Frontiers[0] is the target itself).
	Frontiers []*cube.Cover
	// FrontierCounts[k] is the exact state count of Frontiers[k].
	FrontierCounts []*big.Int
	// All is the union of every frontier: all states that can reach the
	// target within the explored depth.
	All *cube.Cover
	// AllCount is the exact state count of All.
	AllCount *big.Int
	// Fixpoint is true when the iteration converged (the last preimage
	// added no new states) before the step limit. A fixpoint is claimed
	// only from complete preimage layers: when the final layer aborted,
	// Fixpoint stays false no matter how the diff came out, because the
	// truncated layer may simply have missed the remaining predecessors.
	Fixpoint bool
	// Steps is the number of preimage computations performed.
	Steps int
	// Stats accumulates the SAT engines' counters over all steps.
	Stats allsat.Stats
	// BDDNodes is the peak per-step engine node count observed.
	BDDNodes int
	// Aborted is true when a resource budget cut some preimage step
	// short. All frontiers up to the truncated one are exact; the final
	// frontier and All are sound under-approximations. AbortReason says
	// which limit tripped first.
	Aborted     bool
	AbortReason budget.Reason
}

// Reach iterates Compute backwards from the target until a fixpoint or
// maxSteps preimage computations (maxSteps <= 0 means run to fixpoint).
// The budget in opts governs the whole iteration: a relative Timeout is
// resolved once here, so all steps share the allowance, and a step that
// aborts ends the iteration with ReachResult.Aborted set — Fixpoint is
// never claimed from a truncated layer.
func Reach(c *circuit.Circuit, target *cube.Cover, maxSteps int, opts Options) (*ReachResult, error) {
	opts.Budget = opts.Budget.Materialize()
	if useIncremental(opts) {
		return reachIncremental(c, target, maxSteps, opts)
	}
	runStats := opts.Stats
	stateSpace := StateSpace(c)
	man := bdd.NewOrdered(stateSpace.Vars())
	if opts.Engine == EngineSuccessDriven {
		// Let Compute export each step's state set straight into our
		// manager instead of round-tripping it through a cover.
		opts.ShareManager = man
	}

	targetC := canonicalize(stateSpace, target)
	visited := man.FromCover(targetC)
	res := &ReachResult{
		StateSpace:     stateSpace,
		Frontiers:      []*cube.Cover{targetC},
		FrontierCounts: []*big.Int{man.SatCount(visited)},
	}
	frontier := targetC

	for step := 0; maxSteps <= 0 || step < maxSteps; step++ {
		if frontier.Len() == 0 {
			res.Fixpoint = true
			break
		}
		if runStats != nil {
			opts.Stats = runStats.Phase(fmt.Sprintf("step%02d", step))
		}
		pre, err := Compute(c, frontier, opts)
		if err != nil {
			return nil, err
		}
		res.Steps++
		accumulate(&res.Stats, pre.Stats)
		if pre.BDDNodes > res.BDDNodes {
			res.BDDNodes = pre.BDDNodes
		}
		if pre.Aborted {
			res.Aborted = true
			if res.AbortReason == budget.None {
				res.AbortReason = pre.AbortReason
			}
		}
		var preSet bdd.Ref
		if pre.HasSet {
			preSet = pre.Set
		} else {
			preSet = man.FromCover(pre.States)
		}
		newSet := man.Diff(preSet, visited)
		if newSet == bdd.False {
			// Convergence may be claimed only from a complete layer: an
			// aborted preimage adding nothing proves nothing.
			if !pre.Aborted {
				res.Fixpoint = true
			}
			break
		}
		frontier = man.ISOP(newSet, stateSpace)
		visited = man.Or(visited, newSet)
		res.Frontiers = append(res.Frontiers, frontier)
		res.FrontierCounts = append(res.FrontierCounts, man.SatCount(newSet))
		if pre.Aborted {
			// The partial layer's states are genuine (all prior frontiers
			// were exact, so they sit at distance step+1), but iterating
			// from a truncated frontier would assign wrong distances —
			// merge it and stop.
			break
		}
	}
	res.All = man.ISOP(visited, stateSpace)
	res.AllCount = man.SatCount(visited)
	return res, nil
}

func accumulate(dst *allsat.Stats, s allsat.Stats) {
	dst.Solutions += s.Solutions
	dst.Cubes += s.Cubes
	dst.BlockingClauses += s.BlockingClauses
	dst.BlockingLits += s.BlockingLits
	dst.LiftedFree += s.LiftedFree
	dst.Decisions += s.Decisions
	dst.Propagations += s.Propagations
	dst.Conflicts += s.Conflicts
	dst.CacheLookups += s.CacheLookups
	dst.CacheHits += s.CacheHits
	dst.CacheClears += s.CacheClears
	dst.Kernel.Merge(s.Kernel)
	if s.BDDNodes > dst.BDDNodes {
		dst.BDDNodes = s.BDDNodes
	}
}
