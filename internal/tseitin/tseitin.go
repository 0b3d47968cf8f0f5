// Package tseitin converts gate-level circuits into CNF via the Tseitin
// transformation: one CNF variable per signal and a constant-size clause
// set per gate, so the CNF is linear in circuit size and every satisfying
// assignment corresponds exactly to a consistent signal valuation.
package tseitin

import (
	"fmt"

	"allsatpre/internal/circuit"
	"allsatpre/internal/cnf"
	"allsatpre/internal/lit"
)

// Encoding holds a circuit's CNF image together with the signal↔variable
// correspondence.
type Encoding struct {
	// F is the CNF. Variables 0..NumVars-1 map one-to-one onto gates.
	F *cnf.Formula
	// VarOf maps gate index to CNF variable.
	VarOf []lit.Var
	// GateOf maps CNF variable to gate index.
	GateOf []int
	// InputVars are the CNF variables of the primary inputs, in circuit
	// declaration order.
	InputVars []lit.Var
	// StateVars are the variables of the latch outputs (present state Q),
	// in latch declaration order.
	StateVars []lit.Var
	// NextStateVars are the variables of the latch D signals (next state),
	// in latch declaration order.
	NextStateVars []lit.Var
	// OutputVars are the variables of the primary outputs.
	OutputVars []lit.Var

	// clauseStart[i] is the index in F.Clauses of gate i's first clause;
	// the last entry is len(F.Clauses).
	clauseStart []int
	cone        []cnf.Clause // see NextStateCone
	c           *circuit.Circuit
}

// Encode builds the Tseitin CNF of the circuit's combinational logic.
// Primary inputs and latch outputs (present-state variables) are
// unconstrained; DFF gates themselves contribute no clauses — their D
// fanin's variable is reported in NextStateVars. Clauses come in gate
// order and share one literal arena.
func Encode(c *circuit.Circuit) (*Encoding, error) {
	if _, err := c.TopoOrder(); err != nil {
		return nil, err
	}
	n := c.NumGates()
	e := &Encoding{
		VarOf:       make([]lit.Var, n),
		GateOf:      make([]int, n),
		clauseStart: make([]int, n+1),
		c:           c,
	}
	for i := range c.Gates {
		e.VarOf[i] = lit.Var(i)
		e.GateOf[i] = i
	}
	// Every gate with k fanins yields at most 2k+1 clauses of 6k+1
	// literals in all (XOR: 4 clauses, 12 literals).
	fanins := 0
	for _, g := range c.Gates {
		fanins += len(g.Fanins)
	}
	buf := clauseBuf{
		lits: make([]lit.Lit, 0, 6*fanins+n),
		ends: make([]int, 0, 2*fanins+n),
	}
	for i, g := range c.Gates {
		e.clauseStart[i] = len(buf.ends)
		z := lit.Pos(e.VarOf[i])
		nz := z.Not()
		fan := func(k int) lit.Lit { return lit.Pos(e.VarOf[g.Fanins[k]]) }
		switch g.Type {
		case circuit.Input, circuit.DFF:
			// free variables
		case circuit.Const0:
			buf.add(nz)
		case circuit.Const1:
			buf.add(z)
		case circuit.Buf:
			a := fan(0)
			buf.add(nz, a)
			buf.add(z, a.Not())
		case circuit.Not:
			a := fan(0)
			buf.add(nz, a.Not())
			buf.add(z, a)
		case circuit.And, circuit.Nand:
			out, nout := z, nz
			if g.Type == circuit.Nand {
				out, nout = nz, z
			}
			for k := range g.Fanins {
				buf.add(nout, fan(k))
			}
			buf.lits = append(buf.lits, out)
			for k := range g.Fanins {
				buf.lits = append(buf.lits, fan(k).Not())
			}
			buf.end()
		case circuit.Or, circuit.Nor:
			out, nout := z, nz
			if g.Type == circuit.Nor {
				out, nout = nz, z
			}
			for k := range g.Fanins {
				buf.add(out, fan(k).Not())
			}
			buf.lits = append(buf.lits, nout)
			for k := range g.Fanins {
				buf.lits = append(buf.lits, fan(k))
			}
			buf.end()
		case circuit.Xor, circuit.Xnor:
			a, b := fan(0), fan(1)
			out := z
			if g.Type == circuit.Xnor {
				out = nz
			}
			nout := out.Not()
			// out ≡ a ⊕ b
			buf.add(nout, a, b)
			buf.add(nout, a.Not(), b.Not())
			buf.add(out, a.Not(), b)
			buf.add(out, a, b.Not())
		default:
			return nil, fmt.Errorf("tseitin: unsupported gate type %v", g.Type)
		}
	}
	e.clauseStart[n] = len(buf.ends)
	e.F = &cnf.Formula{NumVars: n, Clauses: buf.clauses()}
	for _, i := range c.Inputs {
		e.InputVars = append(e.InputVars, e.VarOf[i])
	}
	for _, i := range c.Latches {
		e.StateVars = append(e.StateVars, e.VarOf[i])
		e.NextStateVars = append(e.NextStateVars, e.VarOf[c.Gates[i].Fanins[0]])
	}
	for _, i := range c.Outputs {
		e.OutputVars = append(e.OutputVars, e.VarOf[i])
	}
	e.cone = e.nextStateCone()
	return e, nil
}

// clauseBuf collects clauses into one literal arena: ends[j] is the end
// offset of clause j in lits.
type clauseBuf struct {
	lits []lit.Lit
	ends []int
}

// add appends the clause ls.
func (b *clauseBuf) add(ls ...lit.Lit) {
	b.lits = append(b.lits, ls...)
	b.end()
}

// end closes the clause made of the literals appended since the last one.
func (b *clauseBuf) end() { b.ends = append(b.ends, len(b.lits)) }

// clauses slices the arena into capped clauses.
func (b *clauseBuf) clauses() []cnf.Clause {
	if len(b.ends) == 0 {
		return nil
	}
	out := make([]cnf.Clause, len(b.ends))
	lo := 0
	for j, hi := range b.ends {
		out[j] = cnf.Clause(b.lits[lo:hi:hi])
		lo = hi
	}
	return out
}

// GateClauses returns gate i's clauses, a sub-slice of F.Clauses.
func (e *Encoding) GateClauses(i int) []cnf.Clause {
	return e.F.Clauses[e.clauseStart[i]:e.clauseStart[i+1]]
}

// NextStateCone returns the clauses of the next-state cone in gate
// order: the gates in the combinational fanin of the latch D signals,
// stopping at inputs and latches. The clauses are F's own; treat them as
// immutable.
//
// Every other gate is functionally defined by its fanins, so for every
// assignment of the cone's variables its clauses have a model. Dropping
// them is therefore exactly existential quantification of their
// variables: the cone's models projected on (s, x, s') are F's. Variable
// ids stay those of F.
func (e *Encoding) NextStateCone() []cnf.Clause { return e.cone }

// nextStateCone collects the next-state cone's clauses.
func (e *Encoding) nextStateCone() []cnf.Clause {
	gates := e.c.Gates
	in := make([]bool, len(gates))
	var stack []int
	for _, l := range e.c.Latches {
		stack = append(stack, gates[l].Fanins[0])
	}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if in[g] {
			continue
		}
		in[g] = true
		if t := gates[g].Type; t != circuit.Input && t != circuit.DFF {
			stack = append(stack, gates[g].Fanins...)
		}
	}
	size := 0
	for g := range gates {
		if in[g] {
			size += e.clauseStart[g+1] - e.clauseStart[g]
		}
	}
	cone := make([]cnf.Clause, 0, size)
	for g := range gates {
		if in[g] {
			cone = append(cone, e.GateClauses(g)...)
		}
	}
	return cone
}
