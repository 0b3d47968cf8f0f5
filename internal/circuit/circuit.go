// Package circuit models gate-level sequential netlists in the ISCAS-89
// style: primary inputs, combinational gates, and D flip-flops. It provides
// BENCH-format parsing and writing, structural analysis (topological
// ordering, levelization, cone of influence), and binary / 64-way parallel
// / ternary simulation.
//
// A netlist here is a slice of gates; every signal is the output of exactly
// one gate. D flip-flops are gates whose output is the latch's present-
// state value Q and whose single fanin is the next-state function D.
package circuit

import (
	"fmt"
)

// GateType enumerates the supported gate functions.
type GateType int

// Gate types. Input gates have no fanins; Const gates have none either.
// DFF gates have exactly one fanin (the D next-state signal).
const (
	Input GateType = iota
	Const0
	Const1
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	DFF
)

var typeNames = map[GateType]string{
	Input: "INPUT", Const0: "CONST0", Const1: "CONST1",
	Buf: "BUF", Not: "NOT", And: "AND", Nand: "NAND",
	Or: "OR", Nor: "NOR", Xor: "XOR", Xnor: "XNOR", DFF: "DFF",
}

func (t GateType) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("GateType(%d)", int(t))
}

// arity returns the legal fanin count range for a gate type.
func (t GateType) arity() (min, max int) {
	switch t {
	case Input, Const0, Const1:
		return 0, 0
	case Buf, Not, DFF:
		return 1, 1
	case Xor, Xnor:
		return 2, 2
	default:
		return 2, 1 << 30
	}
}

// Gate is one netlist node. Fanins index into Circuit.Gates.
type Gate struct {
	Name   string
	Type   GateType
	Fanins []int
}

// Circuit is a sequential netlist.
type Circuit struct {
	Name    string
	Gates   []Gate
	Inputs  []int // primary input gate indexes, in declaration order
	Outputs []int // primary output gate indexes, in declaration order
	Latches []int // DFF gate indexes, in declaration order
	byName  map[string]int
}

// New creates an empty circuit.
func New(name string) *Circuit {
	return &Circuit{Name: name, byName: make(map[string]int)}
}

// NumGates returns the total gate count (including inputs and latches).
func (c *Circuit) NumGates() int { return len(c.Gates) }

// NumCombGates counts gates that are neither inputs, constants, nor DFFs.
func (c *Circuit) NumCombGates() int {
	n := 0
	for _, g := range c.Gates {
		switch g.Type {
		case Input, Const0, Const1, DFF:
		default:
			n++
		}
	}
	return n
}

// IndexOf returns the gate index for a signal name, or -1.
func (c *Circuit) IndexOf(name string) int {
	if i, ok := c.byName[name]; ok {
		return i
	}
	return -1
}

// AddGate appends a gate, validating arity and name uniqueness.
func (c *Circuit) AddGate(name string, t GateType, fanins ...int) int {
	if _, dup := c.byName[name]; dup {
		panic(fmt.Sprintf("circuit: duplicate signal %q", name))
	}
	mn, mx := t.arity()
	if len(fanins) < mn || len(fanins) > mx {
		panic(fmt.Sprintf("circuit: %v gate %q with %d fanins", t, name, len(fanins)))
	}
	for _, f := range fanins {
		if f < 0 || f >= len(c.Gates) {
			panic(fmt.Sprintf("circuit: gate %q fanin %d out of range", name, f))
		}
	}
	idx := len(c.Gates)
	c.Gates = append(c.Gates, Gate{Name: name, Type: t, Fanins: append([]int(nil), fanins...)})
	c.byName[name] = idx
	switch t {
	case Input:
		c.Inputs = append(c.Inputs, idx)
	case DFF:
		c.Latches = append(c.Latches, idx)
	}
	return idx
}

// AddInput appends a primary input.
func (c *Circuit) AddInput(name string) int { return c.AddGate(name, Input) }

// AddLatch appends a D flip-flop fed by gate d.
func (c *Circuit) AddLatch(name string, d int) int { return c.AddGate(name, DFF, d) }

// MarkOutput marks gate i as a primary output.
func (c *Circuit) MarkOutput(i int) {
	if i < 0 || i >= len(c.Gates) {
		panic("circuit: MarkOutput out of range")
	}
	c.Outputs = append(c.Outputs, i)
}

// EvalGate computes a gate's output from its fanin values.
func EvalGate(t GateType, in []bool) bool {
	switch t {
	case Const0:
		return false
	case Const1:
		return true
	case Buf, DFF:
		return in[0]
	case Not:
		return !in[0]
	case And, Nand:
		r := true
		for _, b := range in {
			r = r && b
		}
		if t == Nand {
			return !r
		}
		return r
	case Or, Nor:
		r := false
		for _, b := range in {
			r = r || b
		}
		if t == Nor {
			return !r
		}
		return r
	case Xor:
		return in[0] != in[1]
	case Xnor:
		return in[0] == in[1]
	}
	panic(fmt.Sprintf("circuit: EvalGate on %v", t))
}

// TopoOrder returns a topological order of all gates for combinational
// evaluation: inputs, constants, and DFF outputs count as sources; DFF D
// inputs are sinks. It returns an error if a combinational cycle exists.
func (c *Circuit) TopoOrder() ([]int, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(c.Gates))
	order := make([]int, 0, len(c.Gates))
	// Iterative DFS to survive deep circuits.
	type frame struct{ gate, next int }
	for start := range c.Gates {
		if color[start] != white {
			continue
		}
		stack := []frame{{gate: start}}
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			g := &c.Gates[f.gate]
			// Source gates (and DFFs, whose fanin is a sequential edge)
			// have no combinational dependencies.
			deps := g.Fanins
			if g.Type == DFF || g.Type == Input || g.Type == Const0 || g.Type == Const1 {
				deps = nil
			}
			if f.next < len(deps) {
				d := deps[f.next]
				f.next++
				switch color[d] {
				case white:
					color[d] = gray
					stack = append(stack, frame{gate: d})
				case gray:
					return nil, fmt.Errorf("circuit %s: combinational cycle through %q", c.Name, c.Gates[d].Name)
				}
				continue
			}
			color[f.gate] = black
			order = append(order, f.gate)
			stack = stack[:len(stack)-1]
		}
	}
	return order, nil
}

// Levels assigns a combinational level to every gate: sources are level 0,
// every other gate is 1 + max fanin level (DFF D edges do not count).
func (c *Circuit) Levels() ([]int, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	lvl := make([]int, len(c.Gates))
	for _, i := range order {
		g := &c.Gates[i]
		if g.Type == Input || g.Type == Const0 || g.Type == Const1 || g.Type == DFF {
			lvl[i] = 0
			continue
		}
		maxIn := -1
		for _, f := range g.Fanins {
			if lvl[f] > maxIn {
				maxIn = lvl[f]
			}
		}
		lvl[i] = maxIn + 1
	}
	return lvl, nil
}

// Depth returns the maximum combinational level.
func (c *Circuit) Depth() (int, error) {
	lvl, err := c.Levels()
	if err != nil {
		return 0, err
	}
	d := 0
	for _, l := range lvl {
		if l > d {
			d = l
		}
	}
	return d, nil
}

// Stats summarizes the netlist for reporting.
type NetStats struct {
	Name      string
	Inputs    int
	Outputs   int
	Latches   int
	CombGates int
	Depth     int
}

// Stats computes summary statistics; depth is -1 on cyclic netlists.
func (c *Circuit) Stats() NetStats {
	d, err := c.Depth()
	if err != nil {
		d = -1
	}
	return NetStats{
		Name:      c.Name,
		Inputs:    len(c.Inputs),
		Outputs:   len(c.Outputs),
		Latches:   len(c.Latches),
		CombGates: c.NumCombGates(),
		Depth:     d,
	}
}

func (s NetStats) String() string {
	return fmt.Sprintf("%s: PI=%d PO=%d FF=%d gates=%d depth=%d",
		s.Name, s.Inputs, s.Outputs, s.Latches, s.CombGates, s.Depth)
}
