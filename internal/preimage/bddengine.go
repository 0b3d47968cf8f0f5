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

// abortedBDDResult is the sound fallback for an aborted symbolic run:
// unlike the SAT engines, an interrupted relational product has no usable
// partial answer, so the under-approximation is the empty cover.
func abortedBDDResult(c *circuit.Circuit, m *bdd.Manager, reason budget.Reason) *Result {
	stateSpace := StateSpace(c)
	return &Result{
		States:      cube.NewCover(stateSpace),
		StateSpace:  stateSpace,
		Count:       new(big.Int),
		BDDNodes:    m.NumNodes(),
		Stats:       allsat.Stats{BDDNodes: m.NumNodes(), Kernel: m.Kernel()},
		Engine:      EngineBDD,
		Aborted:     true,
		AbortReason: reason,
	}
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

func (bv bddVars) order() []lit.Var {
	var out []lit.Var
	for k := 0; k < bv.nL; k++ {
		out = append(out, bv.state(k), bv.next(k))
	}
	for j := 0; j < bv.nI; j++ {
		out = append(out, bv.input(j))
	}
	return out
}

// segregatedOrder places all present-state variables before all
// next-state variables (the textbook-bad ordering for transition
// relations); used by the ordering ablation.
func (bv bddVars) segregatedOrder() []lit.Var {
	var out []lit.Var
	for k := 0; k < bv.nL; k++ {
		out = append(out, bv.state(k))
	}
	for k := 0; k < bv.nL; k++ {
		out = append(out, bv.next(k))
	}
	for j := 0; j < bv.nI; j++ {
		out = append(out, bv.input(j))
	}
	return out
}

// computeBDD computes the preimage symbolically:
//
//	Pre(N)(s) = ∃x ∃s'. N(s') ∧ ∏_k (s'_k ≡ δ_k(s, x))
//
// with the product evaluated as a sequence of AndExists relational
// products, quantifying each s'_k as soon as its partition is conjoined
// (early quantification), then quantifying the inputs. A non-nil
// restrict (one position per latch) intersects the preimage with that
// present-state cube: computeBDDParallel's slices.
func computeBDD(c *circuit.Circuit, target *cube.Cover, opts Options, restrict cube.Cube) (*Result, error) {
	if target.Space().Size() != len(c.Latches) {
		return nil, fmt.Errorf("preimage: target has %d positions, circuit has %d latches",
			target.Space().Size(), len(c.Latches))
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
	res, reason, err := computeBDDBody(c, target, restrict, m, bv, order)
	if err != nil {
		return nil, err
	}
	if reason != budget.None {
		return abortedBDDResult(c, m, reason), nil
	}
	return res, nil
}

// computeBDDBody runs the budget-armed symbolic computation; a tripped
// limit unwinds via the *bdd.Abort panic recovered into reason.
func computeBDDBody(c *circuit.Circuit, target *cube.Cover, restrict cube.Cube,
	m *bdd.Manager, bv bddVars, order []int) (_ *Result, reason budget.Reason, err error) {
	defer bdd.CatchAbort(&reason)

	val, err := gateBDDs(m, c, bv, order)
	if err != nil {
		return nil, budget.None, err
	}

	// Target over next-state variables.
	nextSpace := func() *cube.Space {
		vars := make([]lit.Var, bv.nL)
		for k := range vars {
			vars[k] = bv.next(k)
		}
		return cube.NewSpace(vars)
	}()
	nPrime := bdd.False
	for _, cb := range target.Cubes() {
		nPrime = m.Or(nPrime, m.FromCube(nextSpace, cb))
	}

	// Partitioned relational product with early quantification: each
	// partition T_k = (s'_k ≡ δ_k) is the only one mentioning s'_k
	// besides the shrinking R, so s'_k is quantified immediately.
	r := nPrime
	for k, gi := range c.Latches {
		delta := val[c.Gates[gi].Fanins[0]]
		tk := m.Xnor(m.Var(bv.next(k)), delta)
		r = m.AndExists(r, tk, m.CubeVars([]lit.Var{bv.next(k)}))
	}
	// Quantify the primary inputs.
	inVars := make([]lit.Var, bv.nI)
	for j := range inVars {
		inVars[j] = bv.input(j)
	}
	r = m.ExistsVars(r, inVars)

	// Read the result back over the canonical state space.
	mgrStateSpace := func() *cube.Space {
		vars := make([]lit.Var, bv.nL)
		for k := range vars {
			vars[k] = bv.state(k)
		}
		return cube.NewSpace(vars)
	}()
	if restrict != nil {
		r = m.And(r, m.FromCube(mgrStateSpace, restrict))
	}
	stateSpace := StateSpace(c)
	states := canonicalize(stateSpace, m.ISOP(r, mgrStateSpace))

	return &Result{
		States:     states,
		StateSpace: stateSpace,
		Count:      m.SatCountIn(r, mgrStateSpace.Vars()),
		BDDNodes:   m.NumNodes(),
		Stats:      allsat.Stats{BDDNodes: m.NumNodes(), Kernel: m.Kernel()},
		Engine:     EngineBDD,
	}, budget.None, nil
}
