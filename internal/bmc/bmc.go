// Package bmc implements bounded model checking by time-frame expansion:
// the circuit's transition logic is unrolled k times into one CNF, the
// initial-state constraint is asserted at frame 0, and the bad-state
// constraint is checked frame by frame with assumption-based incremental
// SAT — clauses are added monotonically and never retracted, so learnt
// clauses carry across bounds.
//
// BMC complements the preimage engines: it finds shallow counterexamples
// fast but cannot prove unreachability; iterated preimage (internal/
// preimage.CheckReachable) proves both directions. The test suite uses
// each to cross-validate the other.
package bmc

import (
	"fmt"

	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	"allsatpre/internal/preimage"
	"allsatpre/internal/sat"
	"allsatpre/internal/simplify"
	"allsatpre/internal/trans"
)

// Options configures a BMC run.
type Options struct {
	// Budget imposes resource limits across the whole bound sweep, which
	// runs on an incremental solver with sat.DefaultOptions. When it
	// trips, CheckTo returns a Result with Aborted set and Depth
	// reporting the last fully explored depth — never an error.
	Budget budget.Budget
	// Workers > 1 makes CheckOpts sweep the depths in parallel, one
	// checker (solver + unrolling) per worker — see CheckParallel. The
	// Reachable/Depth outcome matches the sequential sweep exactly.
	Workers int
	// Simplify controls projection-safe preprocessing of the per-frame
	// transition CNF before unrolling (internal/simplify). State, input,
	// and next-state variables are frozen, so every frame's
	// (s_k, i_k, s_k+1) projection — and therefore the Reachable/Depth
	// verdict and the extracted trace — is unchanged; only the auxiliary
	// Tseitin variables are eliminated, shrinking every unrolled frame.
	// Auto resolves to on. The pass runs once per checker on a private
	// clone of the (shared, memoized) encoding.
	Simplify simplify.Mode
}

// Result is the outcome of a BMC run.
type Result struct {
	// Reachable reports whether a bad state was found within the bound.
	Reachable bool
	// Depth is the number of transitions of the counterexample, when
	// found; otherwise the deepest bound fully explored (on an aborted
	// run, the last depth proven free of counterexamples).
	Depth int
	// Trace is the counterexample (nil when not Reachable).
	Trace *preimage.Trace
	// Solves counts incremental SAT calls.
	Solves int
	// Stats carries the cumulative SAT solver counters.
	Stats sat.Stats
	// Aborted is true when a resource limit stopped the sweep before the
	// requested bound. Depths 0..Depth are then certified
	// counterexample-free, but deeper counterexamples may exist.
	// AbortReason says which limit tripped.
	Aborted     bool
	AbortReason budget.Reason
}

// Checker incrementally unrolls a circuit. Create with New, then call
// CheckTo with growing bounds; frames and learnt clauses persist.
type Checker struct {
	// inst's formula is the transition logic each unrolled frame
	// instantiates (trans.Instance.Frame).
	inst *trans.Instance
	s    *sat.Solver

	// frameState[k] holds the state variables of frame k; frameInput[k]
	// the input variables of frame k (frames 0..unrolled-1 exist).
	frameState [][]lit.Var
	frameInput [][]lit.Var
	unrolled   int

	// activators[k] is the activation literal of the bad-state
	// constraint at frame k (assumption-based, so each Solve checks
	// exactly one frame).
	activators []lit.Lit

	bad *cube.Cover
}

// New prepares a checker for the circuit with an initial-state cover and
// a bad-state cover (both over the latch order).
func New(c *circuit.Circuit, init, bad *cube.Cover) (*Checker, error) {
	return NewOpts(c, init, bad, Options{})
}

// NewOpts is New with solver tuning and a resource budget.
func NewOpts(c *circuit.Circuit, init, bad *cube.Cover, opts Options) (*Checker, error) {
	if init.Space().Size() != len(c.Latches) || bad.Space().Size() != len(c.Latches) {
		return nil, fmt.Errorf("bmc: init/bad space width must equal the latch count")
	}
	// Each frame instantiates the next-state cone: the rest of the netlist
	// never constrains a state or an input. The base instance's formula
	// is a private copy, so it is simplified in place.
	inst, err := trans.NewBaseInstance(c)
	if err != nil {
		return nil, err
	}
	if opts.Simplify.Enabled() {
		simplify.RunFrozen(inst.F, inst.StateVars, inst.InputVars, inst.NextVars)
	}
	ck := &Checker{inst: inst, s: sat.New(sat.Options{Budget: opts.Budget.Materialize()}), bad: bad}

	// Frame 0 state variables are fresh solver variables constrained to
	// the initial cover (an empty one leaves the solver UNSAT).
	st0 := make([]lit.Var, len(c.Latches))
	for i := range st0 {
		st0[i] = ck.s.NewVar()
	}
	ck.frameState = append(ck.frameState, st0)
	trans.EncodeCover(init, st0, false, ck.s.NewVar, ck.add)
	return ck, nil
}

// add adds a clause to the solver.
func (ck *Checker) add(cl cnf.Clause) { ck.s.AddClause(cl...) }

// ensureFrames unrolls transition logic until `frames` transitions exist.
func (ck *Checker) ensureFrames(frames int) {
	for ck.unrolled < frames {
		base := ck.s.NumVars()
		ck.s.EnsureVars(base + ck.inst.F.NumVars)
		inputs, next := ck.inst.Frame(ck.frameState[ck.unrolled], base, ck.add)
		ck.frameInput = append(ck.frameInput, inputs)
		ck.frameState = append(ck.frameState, next)
		ck.unrolled++
	}
}

// badActivator returns (creating if needed) the assumption literal that
// enables the bad-state constraint at frame k.
func (ck *Checker) badActivator(k int) lit.Lit {
	for len(ck.activators) <= k {
		act, _ := trans.EncodeCover(ck.bad, ck.frameState[len(ck.activators)], true, ck.s.NewVar, ck.add)
		ck.activators = append(ck.activators, act)
	}
	return ck.activators[k]
}

// CheckTo searches for a counterexample of length ≤ bound, checking each
// depth in order with one assumption-based incremental solve. When the
// solver's budget runs out mid-sweep, the result reports Aborted with the
// deepest counterexample-free depth instead of failing with an error.
func (ck *Checker) CheckTo(bound int) (*Result, error) {
	res := &Result{}
	for k := 0; k <= bound; k++ {
		ck.ensureFrames(k)
		act := ck.badActivator(k)
		res.Solves++
		switch ck.s.Solve(act) {
		case sat.Sat:
			res.Reachable = true
			res.Depth = k
			res.Trace = ck.extractTrace(k)
			res.Stats = ck.s.Stats()
			return res, nil
		case sat.Unsat:
			res.Depth = k // certified counterexample-free
		default:
			res.Aborted = true
			res.AbortReason = ck.s.StopReason()
			res.Depth = k - 1
			res.Stats = ck.s.Stats()
			return res, nil
		}
	}
	res.Depth = bound
	res.Stats = ck.s.Stats()
	return res, nil
}

// extractTrace reads the model back into a concrete trace of length k.
func (ck *Checker) extractTrace(k int) *preimage.Trace {
	m := ck.s.Model()
	tr := &preimage.Trace{}
	for f := 0; f <= k; f++ {
		st := make([]bool, len(ck.frameState[f]))
		for i, v := range ck.frameState[f] {
			st[i] = m[v]
		}
		tr.States = append(tr.States, st)
		if f < k {
			in := make([]bool, len(ck.frameInput[f]))
			for i, v := range ck.frameInput[f] {
				in[i] = m[v]
			}
			tr.Inputs = append(tr.Inputs, in)
		}
	}
	return tr
}

// Check is the one-shot convenience: build a checker and search to bound.
func Check(c *circuit.Circuit, init, bad *cube.Cover, bound int) (*Result, error) {
	ck, err := New(c, init, bad)
	if err != nil {
		return nil, err
	}
	return ck.CheckTo(bound)
}

// CheckOpts is Check with solver tuning and a resource budget. With
// Options.Workers > 1 the depth sweep runs in parallel (CheckParallel).
func CheckOpts(c *circuit.Circuit, init, bad *cube.Cover, bound int, opts Options) (*Result, error) {
	if opts.Workers > 1 {
		return CheckParallel(c, init, bad, bound, opts)
	}
	ck, err := NewOpts(c, init, bad, opts)
	if err != nil {
		return nil, err
	}
	return ck.CheckTo(bound)
}
