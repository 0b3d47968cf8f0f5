// Package trans builds single-step preimage problem instances from
// sequential circuits: the Tseitin CNF of the next-state logic conjoined
// with a target-set constraint over the next-state variables, together
// with the variable spaces (present state, primary input) the all-SAT
// engines project onto.
package trans

import (
	"fmt"

	"allsatpre/internal/circuit"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	"allsatpre/internal/tseitin"
)

// Instance is a ready-to-enumerate preimage problem.
//
// The CNF F encodes T = ∏_i (s'_i ≡ δ_i(s, x)) conjoined with the target:
// it carries the Tseitin clauses of the next-state cone only (see
// tseitin.Encoding.NextStateCone), so its models projected onto (s, x)
// are exactly the (state, input) pairs whose next state lies in the
// target set. The preimage is the projection of F's models onto
// StateVars (or onto StateVars ∪ InputVars when the input word is wanted
// too). Variable ids are the encoding's; the variables of gates outside
// the cone occur in no clause.
type Instance struct {
	// F is the constraint CNF.
	F *cnf.Formula
	// Enc is the underlying circuit encoding.
	Enc *tseitin.Encoding
	// StateVars, InputVars and NextVars are the projection variable
	// groups, in latch/input declaration order.
	StateVars, InputVars, NextVars []lit.Var
	// StateSpace is the cube space over StateVars with latch names.
	StateSpace *cube.Space
	// FullSpace is the cube space over StateVars followed by InputVars.
	FullSpace *cube.Space
	// SelectorVars are the auxiliary cube-selector variables added for
	// the target cover (one per target cube), for diagnostics.
	SelectorVars []lit.Var
}

// DedupVars drops repeated variables, keeping first occurrences: latches
// may share one next-state gate, and a cube space must not list its
// variable twice, so image projections range over DedupVars(NextVars).
func DedupVars(vars []lit.Var) []lit.Var {
	seen := make(map[lit.Var]bool, len(vars))
	out := make([]lit.Var, 0, len(vars))
	for _, v := range vars {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// NewBaseInstance builds an instance carrying the Tseitin CNF of the
// circuit's next-state cone with no target constraint: F is a private
// copy of the (cached) encoding's cone clauses in one literal arena, and
// every consistent valuation of the cone satisfies it. Callers add
// the target themselves — either as plain clauses or, for incremental
// sessions, as activation-gated clause groups built with Retarget /
// RetargetInit.
func NewBaseInstance(c *circuit.Circuit) (*Instance, error) {
	enc, err := tseitin.EncodeCached(c)
	if err != nil {
		return nil, err
	}
	inst := &Instance{
		F:         (&cnf.Formula{NumVars: enc.F.NumVars, Clauses: enc.NextStateCone()}).Clone(),
		Enc:       enc,
		StateVars: enc.StateVars,
		InputVars: enc.InputVars,
		NextVars:  enc.NextStateVars,
	}
	names := make([]string, len(c.Latches))
	for i, gi := range c.Latches {
		names[i] = c.Gates[gi].Name
	}
	inst.StateSpace = cube.NewNamedSpace(enc.StateVars, names)
	fullVars := append(append([]lit.Var(nil), enc.StateVars...), enc.InputVars...)
	fullNames := append([]string(nil), names...)
	for _, gi := range c.Inputs {
		fullNames = append(fullNames, c.Gates[gi].Name)
	}
	inst.FullSpace = cube.NewNamedSpace(fullVars, fullNames)
	return inst, nil
}

// addCoverConstraint encodes "the valuation of vars lies in cv" into
// in.F with one selector variable per cube:
//
//	sel_i → (literals of cube i),  sel_1 ∨ … ∨ sel_k
//
// An empty cover yields an empty clause (unsatisfiable instance).
func (in *Instance) addCoverConstraint(cv *cube.Cover, vars []lit.Var) {
	if cv.Len() == 0 {
		in.F.Add()
		return
	}
	var any []lit.Lit
	for _, cb := range cv.Cubes() {
		sel := in.F.NewVar()
		in.SelectorVars = append(in.SelectorVars, sel)
		any = append(any, lit.Pos(sel))
		for pos, t := range cb {
			if t == lit.Unknown {
				continue
			}
			in.F.Add(lit.Neg(sel), lit.New(vars[pos], t == lit.False))
		}
	}
	in.F.Add(any...)
}

// NewInstance builds the preimage instance for the circuit and a target
// cover over the state space (one position per latch, in declaration
// order). The target constraint "next-state ∈ target" is encoded with one
// selector variable per cube:
//
//	sel_i → (next-state literals of cube i),  sel_1 ∨ … ∨ sel_k
//
// An empty target cover yields an unsatisfiable instance (empty preimage).
func NewInstance(c *circuit.Circuit, target *cube.Cover) (*Instance, error) {
	if target.Space().Size() != len(c.Latches) {
		return nil, fmt.Errorf("trans: target space has %d positions, circuit has %d latches",
			target.Space().Size(), len(c.Latches))
	}
	inst, err := NewBaseInstance(c)
	if err != nil {
		return nil, err
	}
	inst.addCoverConstraint(target, inst.NextVars)
	return inst, nil
}

// NewImageInstance builds the forward-image problem for the circuit and
// an initial-state cover: the CNF is satisfiable exactly by consistent
// valuations whose present state lies in init, and the image is the
// projection of its models onto NextVars.
func NewImageInstance(c *circuit.Circuit, init *cube.Cover) (*Instance, error) {
	if init.Space().Size() != len(c.Latches) {
		return nil, fmt.Errorf("trans: init space has %d positions, circuit has %d latches",
			init.Space().Size(), len(c.Latches))
	}
	inst, err := NewBaseInstance(c)
	if err != nil {
		return nil, err
	}
	inst.addCoverConstraint(init, inst.StateVars)
	return inst, nil
}

// Step is one activation-gated target encoding produced by Retarget or
// RetargetInit, for feeding a persistent solver: add every clause in
// Clauses (each contains ¬Act), solve/enumerate under the assumption
// Act, then retire the step with the unit ¬Act and garbage-collect
// everything mentioning Vars.
type Step struct {
	// Act is the activation literal (positive polarity).
	Act lit.Lit
	// Vars are the variables private to the step — the activation
	// variable and the cube selectors — to retire with it.
	Vars []lit.Var
	// Clauses is the gated constraint: sel_i → cube_i literals and the
	// selector disjunction, every clause gated on ¬Act. An empty cover
	// encodes as the single clause {¬Act}, making the step UNSAT under
	// the assumption Act without touching the base formula.
	Clauses [][]lit.Lit
}

// gateCover builds the activation-gated clause set constraining vars to
// lie in cv. newVar allocates fresh solver variables (the caller keeps
// every participating solver's variable counts in sync).
func gateCover(cv *cube.Cover, vars []lit.Var, newVar func() lit.Var) *Step {
	act := newVar()
	st := &Step{Act: lit.Pos(act), Vars: []lit.Var{act}}
	nact := lit.Neg(act)
	if cv.Len() == 0 {
		st.Clauses = append(st.Clauses, []lit.Lit{nact})
		return st
	}
	any := []lit.Lit{nact}
	for _, cb := range cv.Cubes() {
		sel := newVar()
		st.Vars = append(st.Vars, sel)
		any = append(any, lit.Pos(sel))
		for pos, t := range cb {
			if t == lit.Unknown {
				continue
			}
			st.Clauses = append(st.Clauses,
				[]lit.Lit{nact, lit.Neg(sel), lit.New(vars[pos], t == lit.False)})
		}
	}
	st.Clauses = append(st.Clauses, any)
	return st
}

// Retarget encodes a new target cover over the next-state variables as
// an activation-gated step for an incremental backward-reachability
// session. The cover may live in any space of the right width (cube
// positions map to latches by index, as in RetargetCover).
func (in *Instance) Retarget(cv *cube.Cover, newVar func() lit.Var) (*Step, error) {
	if cv.Space().Size() != len(in.NextVars) {
		return nil, fmt.Errorf("trans: cover has %d positions, circuit has %d latches",
			cv.Space().Size(), len(in.NextVars))
	}
	return gateCover(cv, in.NextVars, newVar), nil
}

// RetargetInit encodes a present-state cover as an activation-gated step,
// the forward-image analogue of Retarget.
func (in *Instance) RetargetInit(cv *cube.Cover, newVar func() lit.Var) (*Step, error) {
	if cv.Space().Size() != len(in.StateVars) {
		return nil, fmt.Errorf("trans: cover has %d positions, circuit has %d latches",
			cv.Space().Size(), len(in.StateVars))
	}
	return gateCover(cv, in.StateVars, newVar), nil
}

// TargetFromPatterns builds a cover over a fresh state-shaped space from
// "01X" pattern strings (one position per latch).
func TargetFromPatterns(nLatches int, patterns ...string) *cube.Cover {
	vars := make([]lit.Var, nLatches)
	for i := range vars {
		vars[i] = lit.Var(i)
	}
	sp := cube.NewSpace(vars)
	cv := cube.NewCover(sp)
	for _, p := range patterns {
		cv.Add(sp.CubeOf(p))
	}
	return cv
}

// RetargetCover rebuilds a cover (over any space of the right width) onto
// the instance's state space, so a preimage result can feed the next
// backward step as a target.
func (in *Instance) RetargetCover(cv *cube.Cover) *cube.Cover {
	out := cube.NewCover(in.StateSpace)
	for _, c := range cv.Cubes() {
		out.Add(c.Clone())
	}
	return out
}

// OrderedProjection returns the (state ∪ input) projection variables and
// their names in the requested decision order: state-first by default,
// input-first when inputFirst is set, (s, x)-interleaved when interleave
// is set (interleave wins when both are set). Every ordering keeps the
// latches in declaration order relative to each other, which is what
// makes ISOP covers positionally comparable across orderings.
func (in *Instance) OrderedProjection(inputFirst, interleave bool) ([]lit.Var, []string) {
	st, inp := in.StateVars, in.InputVars
	stateNames := make([]string, len(st))
	for i := range st {
		stateNames[i] = in.StateSpace.Name(i)
	}
	inputNames := make([]string, len(inp))
	for i := range inp {
		inputNames[i] = in.FullSpace.Name(len(st) + i)
	}
	var vars []lit.Var
	var names []string
	switch {
	case interleave:
		for i := 0; i < len(st) || i < len(inp); i++ {
			if i < len(st) {
				vars = append(vars, st[i])
				names = append(names, stateNames[i])
			}
			if i < len(inp) {
				vars = append(vars, inp[i])
				names = append(names, inputNames[i])
			}
		}
	case inputFirst:
		vars = append(append(vars, inp...), st...)
		names = append(append(names, inputNames...), stateNames...)
	default:
		vars = append(append(vars, st...), inp...)
		names = append(append(names, stateNames...), inputNames...)
	}
	return vars, names
}
