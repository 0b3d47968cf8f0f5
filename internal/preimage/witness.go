package preimage

import (
	"allsatpre/internal/allsat"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cube"
	"allsatpre/internal/trans"
)

// Witness is one (state, input) pair — or cube of pairs — that drives the
// circuit into the target in one step.
type Witness struct {
	// State is the present-state part (latch order).
	State cube.Cube
	// Inputs is the primary-input part (input order).
	Inputs cube.Cube
}

// WitnessIterator streams preimage witnesses one at a time, backed by the
// lifting all-SAT iterator, so callers can take the first witness — the
// test-generation use case — or sample a few without enumerating the
// whole preimage.
type WitnessIterator struct {
	it     *allsat.Iterator
	nL, nI int
}

// NewWitnessIterator prepares a streaming enumeration of the (state,
// input) pairs whose successor lies in target. The budget in opts bounds
// the iteration; a tripped limit ends it early.
func NewWitnessIterator(c *circuit.Circuit, target *cube.Cover, opts Options) (*WitnessIterator, error) {
	inst, err := trans.NewInstance(c, target)
	if err != nil {
		return nil, err
	}
	return &WitnessIterator{
		it: allsat.NewIterator(inst.F, inst.FullSpace, allsat.Options{Budget: opts.Budget.Materialize()}, true),
		nL: len(inst.StateVars),
		nI: len(inst.InputVars),
	}, nil
}

// Next returns the next witness cube, or ok=false when exhausted. Free
// positions in either part are genuine don't cares: any completion works.
func (wi *WitnessIterator) Next() (Witness, bool) {
	c, ok := wi.it.Next()
	if !ok {
		return Witness{}, false
	}
	w := Witness{
		State:  c[:wi.nL].Clone(),
		Inputs: c[wi.nL : wi.nL+wi.nI].Clone(),
	}
	return w, true
}

// Stats reports the underlying search counters.
func (wi *WitnessIterator) Stats() allsat.Stats { return wi.it.Stats() }
