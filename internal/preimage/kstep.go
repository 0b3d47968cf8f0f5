package preimage

import (
	"fmt"
	"time"

	"allsatpre/internal/circuit"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	"allsatpre/internal/trans"
)

// KStepPreimage computes, in a single all-SAT enumeration over an
// unrolled transition CNF, the set of states that can reach the target
// within at most k transitions — the union of the first k+1 backward
// layers, obtained without iterating preimages. Only the SAT engines
// apply (the BDD engine has no unrolled formulation here).
//
// The unrolling chains k copies of the combinational next-state logic
// (trans.Instance.Frame); a per-frame activation literal gates "the
// state at frame i is in the target" (trans.EncodeCover), and the
// disjunction of the activations requires some frame to hit it.
// The projection is the frame-0 state vector.
func KStepPreimage(c *circuit.Circuit, target *cube.Cover, k int, opts Options) (*Result, error) {
	opts.Budget = opts.Budget.Materialize()
	start := time.Now()
	if opts.Engine == EngineBDD {
		return nil, fmt.Errorf("preimage: KStepPreimage supports only the SAT engines")
	}
	if k < 0 {
		return nil, fmt.Errorf("preimage: negative step bound %d", k)
	}
	if target.Space().Size() != len(c.Latches) {
		return nil, fmt.Errorf("preimage: target has %d positions, circuit has %d latches",
			target.Space().Size(), len(c.Latches))
	}
	var res *Result
	var err error
	if useIncremental(opts) {
		res, err = kstepWalk(c, target, k, opts)
	} else {
		res, err = kstepUnrolled(c, target, k, opts)
	}
	if err != nil {
		return nil, err
	}
	RecordStats(opts.Stats, res, time.Since(start))
	return res, nil
}

// kstepUnrolled is KStepPreimage as one SAT run over the unrolled
// formula, projected onto the frame-0 state vector.
func kstepUnrolled(c *circuit.Circuit, target *cube.Cover, k int, opts Options) (*Result, error) {
	// Each frame instantiates the next-state cone, the only part of the
	// netlist that constrains a state.
	inst, err := trans.NewBaseInstance(c)
	if err != nil {
		return nil, err
	}
	f := cnf.New(0)
	// Frame-0 state variables come first so the enumerators decide them
	// at the top of the search (and of the solution BDD).
	state0 := make([]lit.Var, len(c.Latches))
	for i := range state0 {
		state0[i] = f.NewVar()
	}
	frameState := [][]lit.Var{state0}
	for frame := 0; frame < k; frame++ {
		base := f.NumVars
		_, next := inst.Frame(frameState[frame], base, f.AddClause)
		f.NumVars = base + inst.F.NumVars
		frameState = append(frameState, next)
	}

	// "Some frame's state is in the target": the target gated per frame,
	// and the disjunction of the gates.
	hit := make(cnf.Clause, len(frameState))
	for i, st := range frameState {
		hit[i], _ = trans.EncodeCover(target, st, true, f.NewVar, f.AddClause)
	}
	f.AddClause(hit)

	stateSpace := StateSpace(c)
	names := make([]string, len(state0))
	for i := range names {
		names[i] = stateSpace.Name(i)
	}
	projSpace := cube.NewNamedSpace(state0, names)

	res, _, err := satRun{f: f, proj: projSpace, pos: latchPositions(state0, projSpace)}.solve(stateSpace, opts, nil)
	return res, err
}

// kstepWalk is KStepPreimage as the union of the first k+1 layers of a
// backward walk over one session. The union equals the unrolled
// formula's projection, and ISOP over the same latch order makes the
// returned cover bit-identical to the unrolled path's on unbudgeted runs
// (abort timing necessarily differs between one unrolled enumeration and
// k separate layers).
func kstepWalk(c *circuit.Circuit, target *cube.Cover, k int, opts Options) (*Result, error) {
	w, err := newWalk(c, target, false, opts)
	if err != nil {
		return nil, err
	}
	defer w.close()
	for !w.done() && w.Steps < k {
		if err := w.Step(); err != nil {
			return nil, err
		}
	}
	states := w.canonical(w.man.ISOP(w.visited, w.space))
	states.Reduce()
	return &Result{
		States:      states,
		StateSpace:  w.canon,
		Count:       w.man.SatCount(w.visited),
		Stats:       w.stats,
		BDDNodes:    w.bddNodes,
		Engine:      opts.Engine,
		Aborted:     w.Aborted,
		AbortReason: w.AbortReason,
	}, nil
}
