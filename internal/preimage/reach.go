package preimage

import (
	"math/big"

	"allsatpre/internal/allsat"
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
// never claimed from a truncated layer (see Walk).
func Reach(c *circuit.Circuit, target *cube.Cover, maxSteps int, opts Options) (*ReachResult, error) {
	return walkResult(c, target, false, maxSteps, opts)
}

// walkResult runs Reach or ForwardReach: a walk with per-step stats
// phases, rendered as a ReachResult.
func walkResult(c *circuit.Circuit, start *cube.Cover, forward bool, maxSteps int, opts Options) (*ReachResult, error) {
	opts.Budget = opts.Budget.Materialize()
	w, err := newWalk(c, start, forward, opts)
	if err != nil {
		return nil, err
	}
	defer w.close()
	w.phases = opts.Stats
	if err := w.run(maxSteps); err != nil {
		return nil, err
	}
	return w.result(), nil
}
