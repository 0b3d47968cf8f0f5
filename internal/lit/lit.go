// Package lit provides the core literal, variable, and ternary-value types
// shared by every SAT-facing package in the repository.
//
// Variables are dense non-negative integers starting at 0. A literal packs a
// variable and a sign into a single int: literal 2*v encodes the positive
// phase of v, literal 2*v+1 the negative phase. This is the classic MiniSat
// encoding; it makes literals directly usable as slice indices for watch
// lists and assignment lookups.
package lit

import (
	"fmt"
	"strconv"
)

// Var is a propositional variable, numbered densely from 0.
type Var int

// Lit is a literal: a variable together with a phase.
// The zero value is the positive literal of variable 0.
type Lit int

// Undef sentinels for "no variable" / "no literal".
const (
	UndefVar Var = -1
	UndefLit Lit = -1
)

// New builds a literal from a variable and a phase. neg=false yields the
// positive literal v, neg=true yields ¬v.
func New(v Var, neg bool) Lit {
	if v < 0 {
		return UndefLit
	}
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Pos returns the positive literal of v.
func Pos(v Var) Lit { return New(v, false) }

// Neg returns the negative literal of v.
func Neg(v Var) Lit { return New(v, true) }

// Var returns the variable underlying l.
func (l Lit) Var() Var {
	if l < 0 {
		return UndefVar
	}
	return Var(l >> 1)
}

// Sign reports whether l is a negative literal.
func (l Lit) Sign() bool { return l >= 0 && l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit {
	if l < 0 {
		return UndefLit
	}
	return l ^ 1
}

// IsDef reports whether l is a real literal (not UndefLit).
func (l Lit) IsDef() bool { return l >= 0 }

// Dimacs returns the DIMACS integer encoding of l: variable v (0-based)
// becomes v+1, negated literals are negative.
func (l Lit) Dimacs() int {
	if l < 0 {
		return 0
	}
	d := int(l.Var()) + 1
	if l.Sign() {
		return -d
	}
	return d
}

// FromDimacs converts a DIMACS integer (non-zero) to a Lit.
func FromDimacs(d int) Lit {
	if d == 0 {
		return UndefLit
	}
	if d < 0 {
		return Neg(Var(-d - 1))
	}
	return Pos(Var(d - 1))
}

// String renders the literal in DIMACS style ("3", "-7").
func (l Lit) String() string {
	if l < 0 {
		return "lit(undef)"
	}
	return strconv.Itoa(l.Dimacs())
}

// String renders the variable as "v<N>".
func (v Var) String() string {
	if v < 0 {
		return "v(undef)"
	}
	return fmt.Sprintf("v%d", int(v))
}

// Tern is a ternary truth value: True, False, or Unknown (X).
type Tern uint8

// Ternary constants. Unknown is the zero value so fresh assignment vectors
// start out fully unassigned.
const (
	Unknown Tern = iota
	True
	False
)

// TernOf converts a bool to a Tern.
func TernOf(b bool) Tern {
	if b {
		return True
	}
	return False
}

// Not returns the ternary complement (X maps to X).
func (t Tern) Not() Tern {
	switch t {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// XorSign complements t when neg is true; used to evaluate a literal from
// the value of its variable.
func (t Tern) XorSign(neg bool) Tern {
	if neg {
		return t.Not()
	}
	return t
}

func (t Tern) String() string {
	switch t {
	case True:
		return "1"
	case False:
		return "0"
	default:
		return "X"
	}
}
