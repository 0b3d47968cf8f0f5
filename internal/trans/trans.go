// Package trans builds single-step preimage problem instances from
// sequential circuits: the Tseitin CNF of the next-state logic conjoined
// with a target-set constraint over the next-state variables, together
// with the variable spaces (present state, primary input) the all-SAT
// engines project onto. It owns every target and frame encoding: the
// 01X pattern parser (ParseTarget), the cover encoder (EncodeCover) and
// the time-frame unroller (Instance.Frame).
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
	// groups, in latch/input declaration order. NextVars are the
	// next-state gates, which latches may share, except in a forward
	// instance (NewForwardBaseInstance), where every latch has its own.
	StateVars, InputVars, NextVars []lit.Var
	// StateSpace is the cube space over StateVars with latch names.
	StateSpace *cube.Space
	// FullSpace is the cube space over StateVars followed by InputVars.
	FullSpace *cube.Space
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

// NewInstance builds the preimage instance for the circuit and a target
// cover over the state space (one position per latch, in declaration
// order): the base instance plus "next-state ∈ target", encoded by
// EncodeCover. An empty target cover yields an unsatisfiable instance
// (empty preimage).
func NewInstance(c *circuit.Circuit, target *cube.Cover) (*Instance, error) {
	if target.Space().Size() != len(c.Latches) {
		return nil, fmt.Errorf("trans: target space has %d positions, circuit has %d latches",
			target.Space().Size(), len(c.Latches))
	}
	inst, err := NewBaseInstance(c)
	if err != nil {
		return nil, err
	}
	EncodeCover(target, inst.NextVars, false, inst.F.NewVar, inst.F.AddClause)
	return inst, nil
}

// NewForwardBaseInstance is NewBaseInstance for the forward direction,
// whose runs project onto NextVars: it gives every latch its own
// next-state variable. Latches may share a next-state gate; a latch
// whose gate an earlier latch already uses gets a fresh variable v, tied
// to the gate g by (¬v ∨ g) and (v ∨ ¬g). So a projection onto NextVars
// has exactly one position per latch, in latch order, and a cube over it
// is a state cube.
func NewForwardBaseInstance(c *circuit.Circuit) (*Instance, error) {
	inst, err := NewBaseInstance(c)
	if err != nil {
		return nil, err
	}
	next := make([]lit.Var, len(inst.NextVars))
	used := make(map[lit.Var]bool, len(next))
	for i, g := range inst.NextVars {
		next[i] = g
		if used[g] {
			next[i] = inst.F.NewVar()
			inst.F.AddClause(cnf.Clause{lit.Neg(next[i]), lit.Pos(g)})
			inst.F.AddClause(cnf.Clause{lit.Pos(next[i]), lit.Neg(g)})
		}
		used[g] = true
	}
	inst.NextVars = next
	return inst, nil
}

// NewImageInstance builds the forward-image problem for the circuit and
// an initial-state cover: the CNF is satisfiable exactly by consistent
// valuations whose present state lies in init, and the image is the
// projection of its models onto NextVars (one variable per latch, see
// NewForwardBaseInstance).
func NewImageInstance(c *circuit.Circuit, init *cube.Cover) (*Instance, error) {
	if init.Space().Size() != len(c.Latches) {
		return nil, fmt.Errorf("trans: init space has %d positions, circuit has %d latches",
			init.Space().Size(), len(c.Latches))
	}
	inst, err := NewForwardBaseInstance(c)
	if err != nil {
		return nil, err
	}
	EncodeCover(init, inst.StateVars, false, inst.F.NewVar, inst.F.AddClause)
	return inst, nil
}

// EncodeCover encodes "the valuation of vars lies in cv" with one
// selector variable per cube, cube positions mapping to vars by index:
//
//	sel_i → (literals of cube i),  sel_1 ∨ … ∨ sel_k
//
// It passes the clauses to add cube by cube, one per fixed position,
// and the selector disjunction last; add may keep them (they share one
// literal arena, each capped so that appending to one never writes into
// another). newVar allocates the variables, which EncodeCover returns in
// allocation order; a caller feeding several solvers keeps their
// variable counts in sync. When gated, the first variable is the
// activation variable and act its positive literal: every clause also
// carries ¬act, so the constraint binds only under the assumption act
// and the unit ¬act retires it. Otherwise act is lit.UndefLit. An empty
// cover encodes as the single clause {¬act}, or as the empty clause
// when not gated: unsatisfiable either way.
func EncodeCover(cv *cube.Cover, vars []lit.Var, gated bool, newVar func() lit.Var, add func(cnf.Clause)) (act lit.Lit, private []lit.Var) {
	cubes := cv.Cubes()
	act = lit.UndefLit
	var gate []lit.Lit // the clause prefix: {¬act} when gated
	private = make([]lit.Var, 0, 1+len(cubes))
	if gated {
		v := newVar()
		act = lit.Pos(v)
		private = append(private, v)
		gate = []lit.Lit{lit.Neg(v)}
	}
	fixed := 0
	for _, cb := range cubes {
		for _, t := range cb {
			if t != lit.Unknown {
				fixed++
			}
		}
	}
	lits := make([]lit.Lit, 0, fixed*(len(gate)+2)+len(gate)+len(cubes))
	for _, cb := range cubes {
		sel := newVar()
		private = append(private, sel)
		for pos, t := range cb {
			if t == lit.Unknown {
				continue
			}
			start := len(lits)
			lits = append(append(lits, gate...), lit.Neg(sel), lit.New(vars[pos], t == lit.False))
			add(lits[start:len(lits):len(lits)])
		}
	}
	start := len(lits)
	lits = append(lits, gate...)
	for _, sel := range private[len(gate):] {
		lits = append(lits, lit.Pos(sel))
	}
	add(lits[start:len(lits):len(lits)])
	return act, private
}

// Group is an activation-gated cover constraint for a persistent solver,
// built by Retarget or RetargetInit: add every clause in Clauses (each
// contains ¬Act), solve or enumerate under the assumption Act, then
// retire the group with the unit ¬Act and garbage-collect everything
// mentioning Vars.
type Group struct {
	// Act is the activation literal (positive polarity).
	Act lit.Lit
	// Vars are the variables private to the group: the activation
	// variable and the cube selectors.
	Vars []lit.Var
	// Clauses is the gated constraint, in EncodeCover's order.
	Clauses []cnf.Clause
}

// gate encodes "vars ∈ cv" as a gated group.
func gate(cv *cube.Cover, vars []lit.Var, newVar func() lit.Var) *Group {
	g := &Group{}
	g.Act, g.Vars = EncodeCover(cv, vars, true, newVar, func(cl cnf.Clause) {
		g.Clauses = append(g.Clauses, cl)
	})
	return g
}

// Retarget encodes a new target cover over the next-state variables as
// an activation-gated group for an incremental backward-reachability
// session. The cover may live in any space of the right width (cube
// positions map to latches by index, as in RetargetCover).
func (in *Instance) Retarget(cv *cube.Cover, newVar func() lit.Var) (*Group, error) {
	if cv.Space().Size() != len(in.NextVars) {
		return nil, fmt.Errorf("trans: cover has %d positions, circuit has %d latches",
			cv.Space().Size(), len(in.NextVars))
	}
	return gate(cv, in.NextVars, newVar), nil
}

// RetargetInit encodes a present-state cover as an activation-gated
// group, the forward-image analogue of Retarget.
func (in *Instance) RetargetInit(cv *cube.Cover, newVar func() lit.Var) (*Group, error) {
	if cv.Space().Size() != len(in.StateVars) {
		return nil, fmt.Errorf("trans: cover has %d positions, circuit has %d latches",
			cv.Space().Size(), len(in.StateVars))
	}
	return gate(cv, in.StateVars, newVar), nil
}

// Frame instantiates F as one time frame of an unrolling: variable v
// becomes base+v, except the state variables, which alias state (the
// frame-0 vector, or the previous frame's next state). It passes the
// remapped clauses to add, which may keep them, and returns the frame's
// input and next-state variables. The caller reserves the variables
// base .. base+F.NumVars-1 (the slots of the aliased state variables
// stay unused).
func (in *Instance) Frame(state []lit.Var, base int, add func(cnf.Clause)) (inputs, next []lit.Var) {
	mapVar := make([]lit.Var, in.F.NumVars)
	for v := range mapVar {
		mapVar[v] = lit.Var(base + v)
	}
	for i, sv := range in.StateVars {
		mapVar[sv] = state[i]
	}
	lits := make([]lit.Lit, 0, in.F.NumLits())
	for _, cl := range in.F.Clauses {
		start := len(lits)
		for _, l := range cl {
			lits = append(lits, lit.New(mapVar[l.Var()], l.Sign()))
		}
		add(lits[start:len(lits):len(lits)])
	}
	remap := func(vars []lit.Var) []lit.Var {
		out := make([]lit.Var, len(vars))
		for i, v := range vars {
			out[i] = mapVar[v]
		}
		return out
	}
	return remap(in.InputVars), remap(in.NextVars)
}

// TargetFromPatterns builds a cover over a fresh state-shaped space from
// "01X" pattern strings (one position per latch). The patterns must be
// valid (cube.Space.CubeOf panics otherwise); ParseTarget checks them.
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

// ParseTarget is TargetFromPatterns for patterns from a user: each must
// have exactly nLatches characters, each 0, 1, or a free mark (X, x or
// -). It is the one place the patterns of the facade, the commands and
// the server are checked.
func ParseTarget(nLatches int, patterns ...string) (*cube.Cover, error) {
	for _, p := range patterns {
		if len(p) != nLatches {
			return nil, fmt.Errorf("target pattern %q has %d positions, circuit has %d latches", p, len(p), nLatches)
		}
		for _, r := range p {
			switch r {
			case '0', '1', 'X', 'x', '-':
			default:
				return nil, fmt.Errorf("target pattern %q: invalid character %q (want 0, 1, X)", p, r)
			}
		}
	}
	return TargetFromPatterns(nLatches, patterns...), nil
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
