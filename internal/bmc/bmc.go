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
	"allsatpre/internal/tseitin"
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
	c   *circuit.Circuit
	enc *tseitin.Encoding
	// frame is the transition logic each unrolled frame instantiates,
	// over enc's variables.
	frame *cnf.Formula
	s     *sat.Solver

	// frameState[k] holds the state variables of frame k; frameInput[k]
	// the input variables of frame k (frames 0..unrolled-1 exist).
	frameState [][]lit.Var
	frameInput [][]lit.Var
	unrolled   int

	// activators[k] is the selector literal that turns on the bad-state
	// constraint at frame k (assumption-based, so each Solve checks
	// exactly one frame).
	activators []lit.Lit

	init, bad *cube.Cover
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
	enc, err := tseitin.EncodeCached(c)
	if err != nil {
		return nil, err
	}
	// Each frame instantiates the next-state cone: the rest of the netlist
	// never constrains a state or an input.
	frame := &cnf.Formula{NumVars: enc.F.NumVars, Clauses: enc.NextStateCone()}
	if opts.Simplify.Enabled(true) {
		// EncodeCached returns a shared, memoized encoding — simplify a
		// private copy, never the cache entry other checkers see.
		frame = frame.Clone()
		simplify.RunFrozen(frame, enc.StateVars, enc.InputVars, enc.NextStateVars)
	}
	ck := &Checker{c: c, enc: enc, frame: frame, s: sat.New(sat.Options{Budget: opts.Budget.Materialize()}),
		init: init, bad: bad}

	// Frame 0 state variables are fresh solver variables constrained to
	// the initial cover.
	n := len(c.Latches)
	st0 := make([]lit.Var, n)
	for i := range st0 {
		st0[i] = ck.s.NewVar()
	}
	ck.frameState = append(ck.frameState, st0)
	if !ck.addCoverConstraint(st0, init) {
		// Empty or contradictory initial set: the solver is already UNSAT.
		return ck, nil
	}
	return ck, nil
}

// addCoverConstraint asserts "state vector ∈ cover" over the given state
// variables using one selector per cube. Returns the solver's okay state.
func (ck *Checker) addCoverConstraint(stateVars []lit.Var, cv *cube.Cover) bool {
	if cv.Len() == 0 {
		return ck.s.AddClause() // empty clause: unsatisfiable
	}
	var any []lit.Lit
	for _, cb := range cv.Cubes() {
		sel := ck.s.NewVar()
		any = append(any, lit.Pos(sel))
		for pos, t := range cb {
			if t == lit.Unknown {
				continue
			}
			if !ck.s.AddClause(lit.Neg(sel), lit.New(stateVars[pos], t == lit.False)) {
				return false
			}
		}
	}
	return ck.s.AddClause(any...)
}

// ensureFrames unrolls transition logic until `frames` transitions exist.
func (ck *Checker) ensureFrames(frames int) {
	for ck.unrolled < frames {
		k := ck.unrolled
		// Instantiate a fresh copy of the combinational logic: variable
		// v of the encoding maps to base+v in the solver, except the
		// state variables, which alias frame k's state vector.
		base := ck.s.NumVars()
		mapVar := make([]lit.Var, ck.frame.NumVars)
		for v := 0; v < ck.frame.NumVars; v++ {
			mapVar[v] = lit.Var(base + v)
		}
		for i, sv := range ck.enc.StateVars {
			mapVar[sv] = ck.frameState[k][i]
		}
		ck.s.EnsureVars(base + ck.frame.NumVars)
		remap := func(l lit.Lit) lit.Lit {
			return lit.New(mapVar[l.Var()], l.Sign())
		}
		for _, cl := range ck.frame.Clauses {
			lits := make([]lit.Lit, len(cl))
			for i, l := range cl {
				lits[i] = remap(l)
			}
			ck.s.AddClause(lits...)
		}
		inputs := make([]lit.Var, len(ck.enc.InputVars))
		for i, iv := range ck.enc.InputVars {
			inputs[i] = mapVar[iv]
		}
		nextState := make([]lit.Var, len(ck.enc.NextStateVars))
		for i, nv := range ck.enc.NextStateVars {
			nextState[i] = mapVar[nv]
		}
		ck.frameInput = append(ck.frameInput, inputs)
		ck.frameState = append(ck.frameState, nextState)
		ck.unrolled++
	}
}

// badActivator returns (creating if needed) the assumption literal that
// enables the bad-state constraint at frame k.
func (ck *Checker) badActivator(k int) lit.Lit {
	for len(ck.activators) <= k {
		frame := len(ck.activators)
		act := lit.Pos(ck.s.NewVar())
		// act → (state_k ∈ bad): per cube, a selector implied chain.
		if ck.bad.Len() == 0 {
			ck.s.AddClause(act.Not())
		} else {
			var any []lit.Lit
			any = append(any, act.Not())
			for _, cb := range ck.bad.Cubes() {
				sel := ck.s.NewVar()
				any = append(any, lit.Pos(sel))
				for pos, t := range cb {
					if t == lit.Unknown {
						continue
					}
					ck.s.AddClause(lit.Neg(sel), lit.New(ck.frameState[frame][pos], t == lit.False))
				}
			}
			ck.s.AddClause(any...)
		}
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
