package preimage

import (
	"fmt"
	"math/big"

	"allsatpre/internal/allsat"
	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
)

// installLimits arms a BDD manager with the computation budget: a node
// cap and a deadline/cancellation checker polled from the node-creation
// hot path. Callers must wrap the subsequent BDD work with
// bdd.CatchAbort to turn a tripped limit into a structured abort.
func installLimits(m *bdd.Manager, b budget.Budget) {
	if b.IsZero() {
		return
	}
	m.SetLimits(b.MaxBDDNodes, b.Start())
}

// bddVars fixes the BDD variable layout for a circuit with L latches and
// I inputs: present-state bit k ↦ var 2k, next-state bit k ↦ var 2k+1
// (interleaved, the classic pairing for transition relations), primary
// input j ↦ var 2L+j.
type bddVars struct {
	nL, nI int
}

func (bv bddVars) state(k int) lit.Var { return lit.Var(2 * k) }
func (bv bddVars) next(k int) lit.Var  { return lit.Var(2*k + 1) }
func (bv bddVars) input(j int) lit.Var { return lit.Var(2*bv.nL + j) }

// varList lists v(0), …, v(n-1).
func varList(n int, v func(int) lit.Var) []lit.Var {
	out := make([]lit.Var, n)
	for i := range out {
		out[i] = v(i)
	}
	return out
}

// space is the cube space over one variable per latch, v(k) for latch
// k: bv.space(bv.state) holds present-state sets, bv.space(bv.next)
// next-state ones.
func (bv bddVars) space(v func(int) lit.Var) *cube.Space {
	return cube.NewSpace(varList(bv.nL, v))
}

func (bv bddVars) order() []lit.Var {
	var out []lit.Var
	for k := 0; k < bv.nL; k++ {
		out = append(out, bv.state(k), bv.next(k))
	}
	return append(out, varList(bv.nI, bv.input)...)
}

// segregatedOrder places all present-state variables before all
// next-state variables (the textbook-bad ordering for transition
// relations); used by the ordering ablation.
func (bv bddVars) segregatedOrder() []lit.Var {
	out := append(varList(bv.nL, bv.state), varList(bv.nL, bv.next)...)
	return append(out, varList(bv.nI, bv.input)...)
}

// runBDD is the set-up both BDD engines share. It checks that set (the
// preimage's target, the image's initial states) has one position per
// latch, builds a manager in the variable order opts asks for, arms it
// with the budget and builds the gate BDDs; body then returns the answer
// as a BDD over the latch variables of space, which runBDD reads back
// over the canonical state space. A tripped limit unwinds via the
// *bdd.Abort panic: unlike the SAT engines, an interrupted symbolic run
// has no usable partial answer, so the sound under-approximation is the
// empty cover.
func runBDD(c *circuit.Circuit, set *cube.Cover, role string, opts Options,
	body func(m *bdd.Manager, bv bddVars, val []bdd.Ref) (r bdd.Ref, space *cube.Space)) (*Result, error) {
	if set.Space().Size() != len(c.Latches) {
		return nil, fmt.Errorf("preimage: %s has %d positions, circuit has %d latches",
			role, set.Space().Size(), len(c.Latches))
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	bv := bddVars{nL: len(c.Latches), nI: len(c.Inputs)}
	varOrder := bv.order()
	if opts.BDDSegregatedOrder {
		varOrder = bv.segregatedOrder()
	}
	m := bdd.NewOrdered(varOrder)
	installLimits(m, opts.Budget)
	stateSpace := StateSpace(c)
	res := &Result{States: cube.NewCover(stateSpace), StateSpace: stateSpace, Count: new(big.Int), Engine: EngineBDD}
	func() {
		defer bdd.CatchAbort(&res.AbortReason)
		var val []bdd.Ref
		if val, err = gateBDDs(m, c, bv, order); err != nil {
			return
		}
		r, space := body(m, bv, val)
		states := canonicalize(stateSpace, m.ISOP(r, space))
		res.States, res.Count = states, m.SatCountIn(r, space.Vars())
	}()
	if err != nil {
		return nil, err
	}
	res.Aborted = res.AbortReason != budget.None
	res.BDDNodes = m.NumNodes()
	res.Stats = allsat.Stats{BDDNodes: res.BDDNodes, Kernel: m.Kernel()}
	return res, nil
}

// computeBDD computes the preimage symbolically:
//
//	Pre(N)(s) = ∃x ∃s'. N(s') ∧ ∏_k (s'_k ≡ δ_k(s, x))
//
// with the product evaluated as a sequence of AndExists relational
// products, quantifying each s'_k as soon as its partition is conjoined
// (early quantification), then quantifying the inputs. It ignores
// opts.Parallel: the one product on one manager gives the same cover,
// count and node count at every worker count.
func computeBDD(c *circuit.Circuit, target *cube.Cover, opts Options) (*Result, error) {
	return runBDD(c, target, "target", opts, func(m *bdd.Manager, bv bddVars, val []bdd.Ref) (bdd.Ref, *cube.Space) {
		// Target over next-state variables.
		nextSpace := bv.space(bv.next)
		r := bdd.False
		for _, cb := range target.Cubes() {
			r = m.Or(r, m.FromCube(nextSpace, cb))
		}
		// Partitioned relational product with early quantification: each
		// partition T_k = (s'_k ≡ δ_k) is the only one mentioning s'_k
		// besides the shrinking R, so s'_k is quantified immediately.
		for k, gi := range c.Latches {
			delta := val[c.Gates[gi].Fanins[0]]
			tk := m.Xnor(m.Var(bv.next(k)), delta)
			r = m.AndExists(r, tk, m.CubeVars([]lit.Var{bv.next(k)}))
		}
		// Quantify the primary inputs.
		return m.ExistsVars(r, varList(bv.nI, bv.input)), bv.space(bv.state)
	})
}
