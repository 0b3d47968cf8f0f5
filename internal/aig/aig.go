// Package aig implements And-Inverter Graphs: the normalized two-input
// AND / inverter netlist representation used by modern model checkers,
// with structural hashing, constant propagation, conversion to and from
// the gate-level circuit model, and AIGER ASCII (.aag) I/O. AIGER is the
// interchange format of the hardware model checking competition, so this
// package gives every CLI a second benchmark input path besides BENCH.
package aig

import (
	"fmt"

	"allsatpre/internal/circuit"
)

// Lit is an AIG literal: 2*node for the positive phase, 2*node+1 for the
// negated phase. Node 0 is the constant false, so Lit 0 = false and
// Lit 1 = true — exactly the AIGER convention.
type Lit uint32

// Constant literals.
const (
	False Lit = 0
	True  Lit = 1
)

// Node returns the node index underlying the literal.
func (l Lit) Node() uint32 { return uint32(l) >> 1 }

// Neg reports whether the literal is inverted.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

// XorNeg conditionally complements the literal.
func (l Lit) XorNeg(neg bool) Lit {
	if neg {
		return l ^ 1
	}
	return l
}

type nodeKind uint8

const (
	kindConst nodeKind = iota
	kindInput
	kindLatch
	kindAnd
)

type node struct {
	kind nodeKind
	// and gate fanins (kind == kindAnd)
	f0, f1 Lit
	// io index for inputs/latches
	ioIdx int
}

// Graph is an And-Inverter Graph with latches.
type Graph struct {
	Name  string
	nodes []node
	// strash maps (f0, f1) to the AND node producing it.
	strash map[[2]Lit]Lit

	inputs  []Lit // input node literals, in declaration order
	latches []Lit // latch node literals
	nextFn  []Lit // latch next-state literals, parallel to latches
	outputs []Lit

	inputNames, latchNames, outputNames []string
}

// New creates an empty graph (with the constant node).
func New(name string) *Graph {
	return &Graph{
		Name:   name,
		nodes:  []node{{kind: kindConst}},
		strash: make(map[[2]Lit]Lit),
	}
}

// NumAnds returns the number of AND nodes.
func (g *Graph) NumAnds() int {
	n := 0
	for _, nd := range g.nodes {
		if nd.kind == kindAnd {
			n++
		}
	}
	return n
}

// AddInput appends a primary input and returns its literal.
func (g *Graph) AddInput(name string) Lit {
	l := Lit(len(g.nodes) << 1)
	g.nodes = append(g.nodes, node{kind: kindInput, ioIdx: len(g.inputs)})
	g.inputs = append(g.inputs, l)
	g.inputNames = append(g.inputNames, name)
	return l
}

// AddLatch appends a latch with a placeholder next function (set later
// via SetNext) and returns its output literal.
func (g *Graph) AddLatch(name string) Lit {
	l := Lit(len(g.nodes) << 1)
	g.nodes = append(g.nodes, node{kind: kindLatch, ioIdx: len(g.latches)})
	g.latches = append(g.latches, l)
	g.nextFn = append(g.nextFn, False)
	g.latchNames = append(g.latchNames, name)
	return l
}

// SetNext sets latch k's next-state literal.
func (g *Graph) SetNext(k int, next Lit) { g.nextFn[k] = next }

// AddOutput marks a literal as a primary output.
func (g *Graph) AddOutput(name string, l Lit) {
	g.outputs = append(g.outputs, l)
	g.outputNames = append(g.outputNames, name)
}

// And returns the literal of a ∧ b, applying constant folding, idempotence
// and complement rules, and structural hashing.
func (g *Graph) And(a, b Lit) Lit {
	// Normalization and trivial cases.
	if a == False || b == False || a == b.Not() {
		return False
	}
	if a == True {
		return b
	}
	if b == True || a == b {
		return a
	}
	if a > b {
		a, b = b, a
	}
	key := [2]Lit{a, b}
	if l, ok := g.strash[key]; ok {
		return l
	}
	l := Lit(len(g.nodes) << 1)
	g.nodes = append(g.nodes, node{kind: kindAnd, f0: a, f1: b})
	g.strash[key] = l
	return l
}

// Or, Xor, Mux and Not are derived connectives.
func (g *Graph) Or(a, b Lit) Lit  { return g.And(a.Not(), b.Not()).Not() }
func (g *Graph) Xor(a, b Lit) Lit { return g.Or(g.And(a, b.Not()), g.And(a.Not(), b)) }

// Eval evaluates the graph: given input and latch-state values, it
// returns output values and the next latch state.
func (g *Graph) Eval(state, inputs []bool) (outputs, nextState []bool) {
	if len(state) != len(g.latches) || len(inputs) != len(g.inputs) {
		panic("aig: Eval dimension mismatch")
	}
	val := make([]bool, len(g.nodes))
	for i, nd := range g.nodes {
		switch nd.kind {
		case kindConst:
			val[i] = false
		case kindInput:
			val[i] = inputs[nd.ioIdx]
		case kindLatch:
			val[i] = state[nd.ioIdx]
		case kindAnd:
			val[i] = g.evalLit(val, nd.f0) && g.evalLit(val, nd.f1)
		}
	}
	outputs = make([]bool, len(g.outputs))
	for k, l := range g.outputs {
		outputs[k] = g.evalLit(val, l)
	}
	nextState = make([]bool, len(g.latches))
	for k, l := range g.nextFn {
		nextState[k] = g.evalLit(val, l)
	}
	return outputs, nextState
}

func (g *Graph) evalLit(val []bool, l Lit) bool {
	return val[l.Node()] != l.Neg()
}

func (g *Graph) String() string {
	return fmt.Sprintf("aig %s: I=%d L=%d O=%d A=%d",
		g.Name, len(g.inputs), len(g.latches), len(g.outputs), g.NumAnds())
}

// FromCircuit converts a gate-level netlist into an AIG with structural
// hashing. Gate fanouts sharing logic collapse automatically.
func FromCircuit(c *circuit.Circuit) (*Graph, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	g := New(c.Name)
	lits := make([]Lit, len(c.Gates))
	// Inputs and latches first, in declaration order.
	for _, gi := range c.Inputs {
		lits[gi] = g.AddInput(c.Gates[gi].Name)
	}
	for _, gi := range c.Latches {
		lits[gi] = g.AddLatch(c.Gates[gi].Name)
	}
	for _, i := range order {
		gt := &c.Gates[i]
		switch gt.Type {
		case circuit.Input, circuit.DFF:
			continue
		case circuit.Const0:
			lits[i] = False
		case circuit.Const1:
			lits[i] = True
		case circuit.Buf:
			lits[i] = lits[gt.Fanins[0]]
		case circuit.Not:
			lits[i] = lits[gt.Fanins[0]].Not()
		case circuit.And, circuit.Nand:
			r := True
			for _, f := range gt.Fanins {
				r = g.And(r, lits[f])
			}
			if gt.Type == circuit.Nand {
				r = r.Not()
			}
			lits[i] = r
		case circuit.Or, circuit.Nor:
			r := False
			for _, f := range gt.Fanins {
				r = g.Or(r, lits[f])
			}
			if gt.Type == circuit.Nor {
				r = r.Not()
			}
			lits[i] = r
		case circuit.Xor:
			lits[i] = g.Xor(lits[gt.Fanins[0]], lits[gt.Fanins[1]])
		case circuit.Xnor:
			lits[i] = g.Xor(lits[gt.Fanins[0]], lits[gt.Fanins[1]]).Not()
		default:
			return nil, fmt.Errorf("aig: unsupported gate %v", gt.Type)
		}
	}
	for k, gi := range c.Latches {
		g.SetNext(k, lits[c.Gates[gi].Fanins[0]])
	}
	for _, gi := range c.Outputs {
		g.AddOutput(c.Gates[gi].Name, lits[gi])
	}
	return g, nil
}

// ToCircuit converts the AIG back to the gate-level model (AND/NOT gates
// only, plus DFFs). Inverted literals become NOT gates, shared per node.
func (g *Graph) ToCircuit() *Circuitized {
	c := circuit.New(g.Name)
	pos := make([]int, len(g.nodes)) // circuit gate for positive literal
	neg := make([]int, len(g.nodes)) // circuit gate for negated literal
	for i := range neg {
		pos[i], neg[i] = -1, -1
	}
	// Constant node.
	pos[0] = c.AddGate("aig_const0", circuit.Const0)
	var latchIdx []int
	for i, nd := range g.nodes {
		switch nd.kind {
		case kindInput:
			pos[i] = c.AddInput(g.inputNames[nd.ioIdx])
		case kindLatch:
			// Placeholder fanin (the constant gate), fixed below once the
			// AND nodes exist.
			pos[i] = c.AddGate(g.latchNames[nd.ioIdx], circuit.DFF, pos[0])
			latchIdx = append(latchIdx, pos[i])
		}
	}
	var litGate func(l Lit) int
	var nodeGate func(n uint32) int
	nodeGate = func(n uint32) int {
		if pos[n] >= 0 {
			return pos[n]
		}
		nd := g.nodes[n]
		a := litGate(nd.f0)
		b := litGate(nd.f1)
		pos[n] = c.AddGate(fmt.Sprintf("aig_n%d", n), circuit.And, a, b)
		return pos[n]
	}
	litGate = func(l Lit) int {
		n := l.Node()
		gp := nodeGate(n)
		if !l.Neg() {
			return gp
		}
		if neg[n] < 0 {
			neg[n] = c.AddGate(fmt.Sprintf("aig_n%d_inv", n), circuit.Not, gp)
		}
		return neg[n]
	}
	for k, l := range g.nextFn {
		c.Gates[latchIdx[k]].Fanins[0] = litGate(l)
	}
	for k, l := range g.outputs {
		og := litGate(l)
		name := g.outputNames[k]
		buf := c.AddGate("out_"+name, circuit.Buf, og)
		c.MarkOutput(buf)
	}
	return &Circuitized{Circuit: c}
}

// Circuitized wraps the converted circuit (the wrapper exists so callers
// can later carry conversion metadata without an API break).
type Circuitized struct {
	*circuit.Circuit
}
