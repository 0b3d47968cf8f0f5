package preimage

import (
	"fmt"

	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	"allsatpre/internal/sat"
	"allsatpre/internal/trans"
)

// ForwardReach iterates Image from the initial set until a fixpoint or
// maxSteps image computations — the forward dual of Reach, with the same
// budget semantics: one shared allowance, no fixpoint claims from
// truncated layers.
func ForwardReach(c *circuit.Circuit, init *cube.Cover, maxSteps int, opts Options) (*ReachResult, error) {
	return walkResult(c, init, true, maxSteps, opts)
}

// Trace is a concrete counterexample: a state sequence and the input
// vectors driving it, with States[i+1] = δ(States[i], Inputs[i]).
type Trace struct {
	// States has length Steps+1; States[0] ∈ init, States[len-1] ∈ bad.
	States [][]bool
	// Inputs has length Steps.
	Inputs [][]bool
}

// Steps returns the number of transitions in the trace.
func (tr *Trace) Steps() int { return len(tr.Inputs) }

// CheckResult is the outcome of a reachability query.
type CheckResult struct {
	// Reachable reports whether some bad state is reachable from init.
	Reachable bool
	// Trace is a concrete witness when Reachable (nil otherwise).
	Trace *Trace
	// Steps is the distance of the witness, or the number of preimage
	// iterations performed before the fixpoint proof.
	Steps int
	// Complete is true when the answer is definitive: either a trace was
	// found, or the backward fixpoint proves unreachability. It is false
	// when maxSteps or a resource budget cut the iteration short.
	Complete bool
	// Aborted is true when a resource budget (not the maxSteps
	// parameter) ended the search before a verdict; AbortReason says
	// which limit tripped. A REACHABLE verdict is still trusted even if
	// some layer was truncated — every state in a partial layer is a
	// genuine predecessor — but no unreachability proof is possible.
	Aborted     bool
	AbortReason budget.Reason
	// Invariant, on a complete UNREACHABLE verdict, is an inductive
	// invariant certifying it: a state cover that contains init, excludes
	// bad, and is closed under the transition relation (its image is
	// contained in it). It is the complement of the backward-reachable
	// set. Verify it independently with VerifyInvariant.
	Invariant *cube.Cover
}

// VerifyInvariant checks the three conditions making inv a proof that bad
// is unreachable from init: init ⊆ inv, inv ∩ bad = ∅, and
// Img(inv) ⊆ inv. It recomputes the image with the given engine, so the
// certificate is checked by machinery independent of how it was found.
func VerifyInvariant(c *circuit.Circuit, init, bad, inv *cube.Cover, opts Options) error {
	stateSpace := StateSpace(c)
	man := bdd.NewOrdered(stateSpace.Vars())
	invSet := man.FromCover(canonicalize(stateSpace, inv))
	initSet := man.FromCover(canonicalize(stateSpace, init))
	badSet := man.FromCover(canonicalize(stateSpace, bad))
	if man.Diff(initSet, invSet) != bdd.False {
		return fmt.Errorf("preimage: invariant does not contain init")
	}
	if man.And(invSet, badSet) != bdd.False {
		return fmt.Errorf("preimage: invariant intersects bad")
	}
	img, err := Image(c, canonicalize(stateSpace, inv), opts)
	if err != nil {
		return err
	}
	imgSet := man.FromCover(img.States)
	if man.Diff(imgSet, invSet) != bdd.False {
		return fmt.Errorf("preimage: invariant is not inductive")
	}
	return nil
}

// CheckReachable decides whether any state of bad is reachable from any
// state of init, using backward reachability from bad (the paper's
// unbounded model-checking loop) and, on success, extracting a concrete
// input trace with one SAT query per step on one persistent solver.
// Options.Incremental selects the backward walk's layer source.
func CheckReachable(c *circuit.Circuit, init, bad *cube.Cover, maxSteps int, opts Options) (*CheckResult, error) {
	opts.Budget = opts.Budget.Materialize()
	w, err := newWalk(c, bad, false, opts)
	if err != nil {
		return nil, err
	}
	defer w.close()
	man := w.man
	initSet := man.FromCover(canonicalize(w.space, init))

	// Backward layers from bad until init is hit or the walk ends.
	hitLayer := -1
	if man.And(initSet, w.layers[0]) != bdd.False {
		hitLayer = 0
	}
	for hitLayer < 0 {
		if maxSteps > 0 && w.Steps >= maxSteps {
			return &CheckResult{Steps: w.Steps}, nil
		}
		layers := w.Layers()
		if err := w.Step(); err != nil {
			return nil, err
		}
		if w.Fixpoint {
			inv := w.canonical(man.ISOP(man.Not(w.visited), w.space))
			return &CheckResult{Steps: w.Steps, Complete: true, Invariant: inv}, nil
		}
		if w.Layers() > layers && man.And(initSet, w.layers[layers]) != bdd.False {
			// Sound even from a truncated layer: every state in a partial
			// preimage is a genuine predecessor, so the trace exists.
			hitLayer = layers
		} else if w.Aborted {
			// A truncated layer proves nothing: the missing predecessors
			// may be exactly the ones reaching init.
			return &CheckResult{Steps: w.Steps, Aborted: true, AbortReason: w.AbortReason}, nil
		}
	}

	// Extract the trace: start at a state in init ∩ layers[hitLayer], then
	// step forward into layers[hitLayer-1], ..., layers[0].
	start := man.AnySat(man.And(initSet, w.layers[hitLayer]), w.space)
	cur := cubeToState(start)
	tr := &Trace{States: [][]bool{cur}}
	var stepper *traceStepper
	if hitLayer > 0 {
		if stepper, err = newTraceStepper(c); err != nil {
			return nil, err
		}
	}
	for k := hitLayer - 1; k >= 0; k-- {
		in, next, err := stepper.step(cur, w.Frontier(k))
		if err != nil {
			return nil, fmt.Errorf("preimage: trace extraction at layer %d: %w", k, err)
		}
		tr.Inputs = append(tr.Inputs, in)
		tr.States = append(tr.States, next)
		cur = next
	}
	return &CheckResult{Reachable: true, Trace: tr, Steps: hitLayer, Complete: true}, nil
}

// cubeToState picks the concrete state of a cube (free positions → 0).
func cubeToState(cb cube.Cube) []bool {
	out := make([]bool, len(cb))
	for i, t := range cb {
		out[i] = t == lit.True
	}
	return out
}

// traceStepper replays a counterexample trace with one persistent
// transition instance and SAT solver: each layer's target is gated on a
// fresh activation literal (trans.Retarget) and retired with a unit,
// instead of rebuilding the CNF and solver per layer. Learned clauses
// mentioning a retired activation variable are permanently satisfied by
// its unit, so the plain CDCL solver needs no group GC.
type traceStepper struct {
	inst   *trans.Instance
	s      *sat.Solver
	act    lit.Lit
	hasAct bool
}

func newTraceStepper(c *circuit.Circuit) (*traceStepper, error) {
	inst, err := trans.NewBaseInstance(c)
	if err != nil {
		return nil, err
	}
	return &traceStepper{inst: inst, s: sat.FromFormula(inst.F, sat.DefaultOptions())}, nil
}

// step finds one input vector moving the concrete state cur into the
// target set, returning the inputs and the successor state.
func (ts *traceStepper) step(cur []bool, target *cube.Cover) (inputs, next []bool, err error) {
	if ts.hasAct {
		ts.s.AddClause(ts.act.Not())
	}
	st, err := ts.inst.Retarget(target, ts.s.NewVar)
	if err != nil {
		return nil, nil, err
	}
	ts.act, ts.hasAct = st.Act, true
	ok := true
	for _, cl := range st.Clauses {
		ok = ts.s.AddClause(cl...) && ok
	}
	if !ok {
		return nil, nil, fmt.Errorf("no transition from %v into the layer", cur)
	}
	assume := make([]lit.Lit, 0, len(ts.inst.StateVars)+1)
	for i, v := range ts.inst.StateVars {
		assume = append(assume, lit.New(v, !cur[i]))
	}
	assume = append(assume, st.Act)
	switch ts.s.Solve(assume...) {
	case sat.Sat:
	case sat.Unsat:
		return nil, nil, fmt.Errorf("no transition from %v into the layer", cur)
	default:
		return nil, nil, fmt.Errorf("budget exhausted during trace extraction")
	}
	m := ts.s.Model()
	inputs = make([]bool, len(ts.inst.InputVars))
	for i, v := range ts.inst.InputVars {
		inputs[i] = m[v]
	}
	next = make([]bool, len(ts.inst.NextVars))
	for i, v := range ts.inst.NextVars {
		next[i] = m[v]
	}
	return inputs, next, nil
}
