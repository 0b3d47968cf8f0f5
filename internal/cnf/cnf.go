// Package cnf provides CNF formula containers, DIMACS I/O, and small
// reference algorithms (evaluation, brute-force enumeration) used both by
// the solvers and by the test suites as ground truth.
package cnf

import (
	"fmt"
	"slices"

	"allsatpre/internal/lit"
)

// Clause is a disjunction of literals.
type Clause []lit.Lit

// Clone returns a deep copy of the clause.
func (c Clause) Clone() Clause {
	out := make(Clause, len(c))
	copy(out, c)
	return out
}

// Normalize sorts the clause, removes duplicate literals, and reports
// whether the clause is a tautology (contains l and ¬l). c is not
// modified.
func (c Clause) Normalize() (Clause, bool) {
	if len(c) == 0 {
		return c, false
	}
	return c.Clone().NormalizeInPlace()
}

// NormalizeInPlace is Normalize reusing c's storage: c is reordered and
// the returned clause aliases it.
func (c Clause) NormalizeInPlace() (Clause, bool) {
	slices.Sort(c)
	out := c[:0]
	var prev lit.Lit = lit.UndefLit
	for _, l := range c {
		if l == prev {
			continue
		}
		if prev.IsDef() && l == prev.Not() {
			return nil, true
		}
		out = append(out, l)
		prev = l
	}
	return out, false
}

// Eval evaluates the clause under a ternary assignment indexed by variable.
func (c Clause) Eval(assign []lit.Tern) lit.Tern {
	res := lit.False
	for _, l := range c {
		v := l.Var()
		var t lit.Tern
		if int(v) < len(assign) {
			t = assign[v].XorSign(l.Sign())
		}
		if t == lit.True {
			return lit.True
		}
		if t == lit.Unknown {
			res = lit.Unknown
		}
	}
	return res
}

// String renders the clause in DIMACS style without the trailing 0.
func (c Clause) String() string {
	s := "("
	for i, l := range c {
		if i > 0 {
			s += " "
		}
		s += l.String()
	}
	return s + ")"
}

// Formula is a CNF formula: a number of variables and a set of clauses.
type Formula struct {
	NumVars int
	Clauses []Clause
}

// New returns an empty formula over n variables.
func New(n int) *Formula {
	return &Formula{NumVars: n}
}

// NewVar allocates a fresh variable and returns it.
func (f *Formula) NewVar() lit.Var {
	v := lit.Var(f.NumVars)
	f.NumVars++
	return v
}

// Add appends a clause, growing NumVars to cover its literals.
func (f *Formula) Add(c ...lit.Lit) {
	cl := Clause(c).Clone()
	for _, l := range cl {
		if int(l.Var()) >= f.NumVars {
			f.NumVars = int(l.Var()) + 1
		}
	}
	f.Clauses = append(f.Clauses, cl)
}

// AddClause appends an existing clause value (without copying).
func (f *Formula) AddClause(c Clause) {
	for _, l := range c {
		if int(l.Var()) >= f.NumVars {
			f.NumVars = int(l.Var()) + 1
		}
	}
	f.Clauses = append(f.Clauses, c)
}

// Clone returns a deep copy of the formula. The copy's clauses share one
// literal arena and are capped, so appending to one never writes into
// another.
func (f *Formula) Clone() *Formula {
	n := 0
	for _, c := range f.Clauses {
		n += len(c)
	}
	lits := make([]lit.Lit, n)
	g := &Formula{NumVars: f.NumVars, Clauses: make([]Clause, len(f.Clauses))}
	off := 0
	for i, c := range f.Clauses {
		end := off + copy(lits[off:], c)
		g.Clauses[i] = lits[off:end:end]
		off = end
	}
	return g
}

// Eval evaluates the formula under a ternary assignment.
func (f *Formula) Eval(assign []lit.Tern) lit.Tern {
	res := lit.True
	for _, c := range f.Clauses {
		switch c.Eval(assign) {
		case lit.False:
			return lit.False
		case lit.Unknown:
			res = lit.Unknown
		}
	}
	return res
}

// Satisfied reports whether the (total or partial) assignment satisfies
// every clause.
func (f *Formula) Satisfied(assign []lit.Tern) bool {
	return f.Eval(assign) == lit.True
}

// NumLits returns the total number of literal occurrences.
func (f *Formula) NumLits() int {
	n := 0
	for _, c := range f.Clauses {
		n += len(c)
	}
	return n
}

func (f *Formula) String() string {
	return fmt.Sprintf("cnf(vars=%d clauses=%d)", f.NumVars, len(f.Clauses))
}

// EnumerateModels brute-forces every total assignment over the formula's
// variables and calls fn with each satisfying assignment (as a bool slice
// indexed by variable). It is exponential and intended for tests and tiny
// instances only; it panics if the formula has more than 24 variables.
func (f *Formula) EnumerateModels(fn func(model []bool)) {
	if f.NumVars > 24 {
		panic("cnf: EnumerateModels limited to 24 variables")
	}
	n := f.NumVars
	model := make([]bool, n)
	assign := make([]lit.Tern, n)
	for m := 0; m < 1<<uint(n); m++ {
		for i := 0; i < n; i++ {
			model[i] = m&(1<<uint(i)) != 0
			assign[i] = lit.TernOf(model[i])
		}
		if f.Satisfied(assign) {
			fn(model)
		}
	}
}

// CountModels returns the number of total satisfying assignments (brute
// force; tests only).
func (f *Formula) CountModels() int {
	n := 0
	f.EnumerateModels(func([]bool) { n++ })
	return n
}

// ProjectedModels returns the set of distinct projections of all models
// onto the given variables, encoded as strings of '0'/'1' in vars order.
// Brute force; tests only.
func (f *Formula) ProjectedModels(vars []lit.Var) map[string]bool {
	out := make(map[string]bool)
	buf := make([]byte, len(vars))
	f.EnumerateModels(func(model []bool) {
		for i, v := range vars {
			if int(v) < len(model) && model[v] {
				buf[i] = '1'
			} else {
				buf[i] = '0'
			}
		}
		out[string(buf)] = true
	})
	return out
}
