package preimage

import (
	"fmt"
	"time"

	"allsatpre/internal/bdd"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cube"
	"allsatpre/internal/trans"
)

// Image computes the forward image of an initial state set — the set of
// states reachable in exactly one transition from init:
//
//	Img(I)(s') = ∃s ∃x. I(s) ∧ T(s, x, s')
//
// The same four engines are available. For the SAT engines the projection
// is onto the next-state variables, so the success-driven enumerator's
// decision order is s' (the cut that functionally *depends on* the rest,
// rather than determining it — image is the harder direction for
// cut-based enumeration, exactly as the paper observes for preimage's
// dual).
func Image(c *circuit.Circuit, init *cube.Cover, opts Options) (*Result, error) {
	res, _, err := image(c, init, opts, nil)
	return res, err
}

// image is Image for the frontier walk's fresh layer source; share is
// as in compute. The SAT engines project onto the next-state variables,
// one per latch in latch order (trans.NewForwardBaseInstance). They are
// internal gate variables of the Tseitin CNF, which the enumerators
// handle like any other projection set. With share, a success-driven
// run returns the set only, as compute does.
func image(c *circuit.Circuit, init *cube.Cover, opts Options, share *bdd.Manager) (*Result, bdd.Ref, error) {
	opts.Budget = opts.Budget.Materialize()
	start := time.Now()
	var res *Result
	set := bdd.False
	var err error
	if opts.Engine == EngineBDD {
		if res, err = imageBDD(c, init, opts); err == nil && share != nil {
			set = share.FromCover(res.States)
		}
	} else {
		var inst *trans.Instance
		if inst, err = trans.NewImageInstance(c, init); err != nil {
			return nil, set, err
		}
		projSpace := cube.NewSpace(inst.NextVars)
		run := satRun{f: inst.F, proj: projSpace, pos: latchPositions(inst.NextVars, projSpace)}
		res, set, err = run.solve(StateSpace(c), opts, share)
	}
	if err != nil {
		return nil, set, err
	}
	RecordStats(opts.Stats, res, time.Since(start))
	return res, set, nil
}

// imageBDD computes the forward image symbolically: the next-state
// functions are built over (s, x), conjoined with the initial set, and
// (s, x) is quantified out of the transition product. A tripped budget
// yields the aborted empty-cover result, like the preimage direction.
func imageBDD(c *circuit.Circuit, init *cube.Cover, opts Options) (*Result, error) {
	return runBDD(c, init, "init", opts, func(m *bdd.Manager, bv bddVars, val []bdd.Ref) (bdd.Ref, *cube.Space) {
		curSpace := bv.space(bv.state)
		r := bdd.False
		for _, cb := range init.Cubes() {
			r = m.Or(r, m.FromCube(curSpace, cb))
		}
		// Conjoin all transition partitions, then quantify (s, x). Unlike
		// the preimage direction there is no per-partition early
		// quantification: every δ_k shares the s and x variables.
		for k, gi := range c.Latches {
			delta := val[c.Gates[gi].Fanins[0]]
			r = m.And(r, m.Xnor(m.Var(bv.next(k)), delta))
		}
		quant := append(varList(bv.nL, bv.state), varList(bv.nI, bv.input)...)
		return m.ExistsVars(r, quant), bv.space(bv.next)
	})
}

// gateBDDs builds the per-gate BDDs over (state, input) variables; shared
// by the preimage and image BDD engines.
func gateBDDs(m *bdd.Manager, c *circuit.Circuit, bv bddVars, order []int) ([]bdd.Ref, error) {
	val := make([]bdd.Ref, len(c.Gates))
	latchPos := make(map[int]int, bv.nL)
	for k, gi := range c.Latches {
		latchPos[gi] = k
	}
	inputPos := make(map[int]int, bv.nI)
	for j, gi := range c.Inputs {
		inputPos[gi] = j
	}
	for _, i := range order {
		g := &c.Gates[i]
		switch g.Type {
		case circuit.Input:
			val[i] = m.Var(bv.input(inputPos[i]))
		case circuit.DFF:
			val[i] = m.Var(bv.state(latchPos[i]))
		case circuit.Const0:
			val[i] = bdd.False
		case circuit.Const1:
			val[i] = bdd.True
		case circuit.Buf:
			val[i] = val[g.Fanins[0]]
		case circuit.Not:
			val[i] = m.Not(val[g.Fanins[0]])
		case circuit.And, circuit.Nand:
			r := bdd.True
			for _, f := range g.Fanins {
				r = m.And(r, val[f])
			}
			if g.Type == circuit.Nand {
				r = m.Not(r)
			}
			val[i] = r
		case circuit.Or, circuit.Nor:
			r := bdd.False
			for _, f := range g.Fanins {
				r = m.Or(r, val[f])
			}
			if g.Type == circuit.Nor {
				r = m.Not(r)
			}
			val[i] = r
		case circuit.Xor:
			val[i] = m.Xor(val[g.Fanins[0]], val[g.Fanins[1]])
		case circuit.Xnor:
			val[i] = m.Xnor(val[g.Fanins[0]], val[g.Fanins[1]])
		default:
			return nil, fmt.Errorf("preimage: unsupported gate %v", g.Type)
		}
	}
	return val, nil
}
