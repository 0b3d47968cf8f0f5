package circuit

import (
	"fmt"
)

// Simulator evaluates a circuit. It caches the topological order, so one
// Simulator amortizes across many vectors.
type Simulator struct {
	c     *Circuit
	order []int
}

// NewSimulator prepares a simulator; it fails on combinational cycles.
func NewSimulator(c *Circuit) (*Simulator, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	return &Simulator{c: c, order: order}, nil
}

// Step evaluates one clock cycle: given the current latch state (indexed
// by Latches order) and primary input vector (indexed by Inputs order), it
// returns the primary output vector and the next latch state.
func (s *Simulator) Step(state, inputs []bool) (outputs, nextState []bool) {
	c := s.c
	if len(state) != len(c.Latches) || len(inputs) != len(c.Inputs) {
		panic(fmt.Sprintf("circuit: Step dimensions: state %d/%d inputs %d/%d",
			len(state), len(c.Latches), len(inputs), len(c.Inputs)))
	}
	val := make([]bool, len(c.Gates))
	for k, i := range c.Latches {
		val[i] = state[k]
	}
	for k, i := range c.Inputs {
		val[i] = inputs[k]
	}
	var inBuf []bool
	for _, i := range s.order {
		g := &c.Gates[i]
		switch g.Type {
		case Input, DFF:
			continue // already seeded
		default:
			inBuf = inBuf[:0]
			for _, f := range g.Fanins {
				inBuf = append(inBuf, val[f])
			}
			val[i] = EvalGate(g.Type, inBuf)
		}
	}
	outputs = make([]bool, len(c.Outputs))
	for k, i := range c.Outputs {
		outputs[k] = val[i]
	}
	nextState = make([]bool, len(c.Latches))
	for k, i := range c.Latches {
		nextState[k] = val[c.Gates[i].Fanins[0]]
	}
	return outputs, nextState
}

// Step64 simulates 64 independent vectors in parallel: each uint64 carries
// one bit per vector.
func (s *Simulator) Step64(state, inputs []uint64) (outputs, nextState []uint64) {
	c := s.c
	if len(state) != len(c.Latches) || len(inputs) != len(c.Inputs) {
		panic("circuit: Step64 dimension mismatch")
	}
	val := make([]uint64, len(c.Gates))
	for k, i := range c.Latches {
		val[i] = state[k]
	}
	for k, i := range c.Inputs {
		val[i] = inputs[k]
	}
	for _, i := range s.order {
		g := &c.Gates[i]
		switch g.Type {
		case Input, DFF:
			continue
		case Const0:
			val[i] = 0
		case Const1:
			val[i] = ^uint64(0)
		case Buf:
			val[i] = val[g.Fanins[0]]
		case Not:
			val[i] = ^val[g.Fanins[0]]
		case And, Nand:
			r := ^uint64(0)
			for _, f := range g.Fanins {
				r &= val[f]
			}
			if g.Type == Nand {
				r = ^r
			}
			val[i] = r
		case Or, Nor:
			r := uint64(0)
			for _, f := range g.Fanins {
				r |= val[f]
			}
			if g.Type == Nor {
				r = ^r
			}
			val[i] = r
		case Xor:
			val[i] = val[g.Fanins[0]] ^ val[g.Fanins[1]]
		case Xnor:
			val[i] = ^(val[g.Fanins[0]] ^ val[g.Fanins[1]])
		}
	}
	outputs = make([]uint64, len(c.Outputs))
	for k, i := range c.Outputs {
		outputs[k] = val[i]
	}
	nextState = make([]uint64, len(c.Latches))
	for k, i := range c.Latches {
		nextState[k] = val[c.Gates[i].Fanins[0]]
	}
	return outputs, nextState
}
