// Package bdd implements reduced ordered binary decision diagrams (ROBDDs)
// with a shared unique table and memoized operations: ITE-based Boolean
// connectives, existential quantification, the AndExists relational
// product, exact model counting, and irredundant sum-of-products covers.
//
// It serves two roles in this repository: it is the baseline preimage
// engine (relational-product image computation, as in classical symbolic
// model checkers), and it is the canonical store for the solution sets
// produced by the all-solutions SAT enumerators.
package bdd

import (
	"fmt"
	"math"

	"allsatpre/internal/budget"
	"allsatpre/internal/lit"
)

// Ref identifies a BDD node within one Manager. The constants False and
// True are the terminal nodes. Refs from different managers must not be
// mixed; operations panic on out-of-range refs.
type Ref int32

// Terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

const terminalLevel = int32(math.MaxInt32)

type node struct {
	level     int32 // position in the variable order (not the variable id)
	low, high Ref
}

const (
	opITE uint8 = iota
	opAnd
	opOr
	opExists
	opAndExists
)

// defaultUniqueBits sizes a fresh manager's unique table (2^bits slots).
// Kept small so the many short-lived managers (one per counting call)
// stay allocation-lean; the table doubles at 3/4 load.
const defaultUniqueBits = 8

// Manager owns a node table and operation caches for one variable order.
type Manager struct {
	nodes    []node
	unique   uniqueTable // open-addressed (level, low, high) -> Ref index
	cache    applyCache  // direct-mapped memo for the apply recursions
	order    []lit.Var   // level -> variable
	varLevel []int32     // variable -> level, -1 if unknown

	// Resource limits (see SetLimits): exceeding them aborts the current
	// operation by panicking with *Abort, recovered by CatchAbort.
	maxNodes int
	check    *budget.Checker
}

// Abort is the panic payload raised from deep inside a BDD operation
// when the manager's budget (node cap, deadline, cancellation) trips.
// Recover it with CatchAbort; any other panic is re-raised.
type Abort struct {
	Reason budget.Reason
}

func (a *Abort) Error() string { return "bdd: aborted: " + a.Reason.String() }

// SetLimits installs a node cap (0 = unlimited) and an optional budget
// checker polled from the node-construction hot path. When either trips,
// the in-flight operation panics with *Abort — wrap the calling
// computation with `defer CatchAbort(&reason)` to turn that into a
// structured abort with whatever partial state the caller retains.
func (m *Manager) SetLimits(maxNodes int, check *budget.Checker) {
	m.maxNodes = maxNodes
	m.check = check
}

// CatchAbort is the deferred companion of SetLimits: it recovers an
// *Abort panic into *reason and re-raises anything else.
func CatchAbort(reason *budget.Reason) {
	if r := recover(); r != nil {
		if a, ok := r.(*Abort); ok {
			*reason = a.Reason
			return
		}
		panic(r)
	}
}

// growCache doubles the apply cache in step with unique-table rehashes,
// keeping its reach proportional to the node population without paying
// for a large array on managers that stay small.
func (m *Manager) growCache() {
	n := len(m.cache.entries)
	if n*2 <= maxCacheSlots && n < len(m.unique.slots) {
		m.cache.resize(n * 2)
	}
}

// New creates a manager over n variables with the identity order
// (variable i at level i).
func New(n int) *Manager {
	order := make([]lit.Var, n)
	for i := range order {
		order[i] = lit.Var(i)
	}
	return NewOrdered(order)
}

// NewOrdered creates a manager whose variable order is the given list
// (first entry at the top). Every variable used in operations must appear.
func NewOrdered(order []lit.Var) *Manager {
	return newOrdered(order, defaultUniqueBits)
}

// newOrdered is NewOrdered with an explicit initial unique-table size
// (2^uniqueBits slots); tests use tiny tables to force rehashes early.
func newOrdered(order []lit.Var, uniqueBits int) *Manager {
	m := &Manager{order: append([]lit.Var(nil), order...)}
	m.unique.init(uniqueBits)
	m.cache.init(minCacheSlots)
	maxVar := lit.Var(-1)
	for _, v := range order {
		if v > maxVar {
			maxVar = v
		}
	}
	m.varLevel = make([]int32, maxVar+1)
	for i := range m.varLevel {
		m.varLevel[i] = -1
	}
	for l, v := range m.order {
		if m.varLevel[v] != -1 {
			panic(fmt.Sprintf("bdd: duplicate variable %v in order", v))
		}
		m.varLevel[v] = int32(l)
	}
	// Terminals occupy slots 0 and 1.
	m.nodes = append(m.nodes,
		node{level: terminalLevel},
		node{level: terminalLevel})
	return m
}

// NumNodes returns the total number of nodes ever created, including the
// two terminals — the memory-consumption proxy used by the benchmarks.
func (m *Manager) NumNodes() int { return len(m.nodes) }

// Level returns the level of variable v, panicking if v is not in the
// order.
func (m *Manager) Level(v lit.Var) int32 {
	if int(v) >= len(m.varLevel) || m.varLevel[v] < 0 {
		panic(fmt.Sprintf("bdd: variable %v not in order", v))
	}
	return m.varLevel[v]
}

func (m *Manager) level(r Ref) int32 { return m.nodes[r].level }

// mk returns the canonical node (level, low, high), applying the ROBDD
// reduction rules. It is the single point through which every node is
// created, so the budget limits are enforced here — after the unique-table
// hit check (a hit allocates nothing and must stay abort-free) and before
// any mutation, so an abort never leaves a half-inserted node behind.
func (m *Manager) mk(level int32, low, high Ref) Ref {
	if low == high {
		return low
	}
	r, slot, ok := m.unique.find(m.nodes, level, low, high)
	if ok {
		return r
	}
	if m.maxNodes > 0 && len(m.nodes) >= m.maxNodes {
		panic(&Abort{Reason: budget.Nodes})
	}
	if m.check != nil {
		if reason := m.check.Poll(); reason != budget.None {
			panic(&Abort{Reason: reason})
		}
	}
	if m.unique.needGrow(len(m.nodes) - 1) {
		m.unique.rehash(m.nodes)
		m.growCache()
		slot = m.unique.emptySlot(level, low, high)
	}
	r = Ref(len(m.nodes))
	m.nodes = append(m.nodes, node{level: level, low: low, high: high})
	m.unique.slots[slot] = r
	return r
}

// Var returns the BDD of the positive literal of v.
func (m *Manager) Var(v lit.Var) Ref { return m.mk(m.Level(v), False, True) }

// NVar returns the BDD of the negative literal of v.
func (m *Manager) NVar(v lit.Var) Ref { return m.mk(m.Level(v), True, False) }

// Lit returns the BDD of a literal.
func (m *Manager) Lit(l lit.Lit) Ref {
	if l.Sign() {
		return m.NVar(l.Var())
	}
	return m.Var(l.Var())
}

// cofactors returns the low/high cofactors of r with respect to the given
// level.
func (m *Manager) cofactors(r Ref, level int32) (lo, hi Ref) {
	n := m.nodes[r]
	if n.level == level {
		return n.low, n.high
	}
	return r, r
}

// ITE computes if-then-else: f·g + ¬f·h.
func (m *Manager) ITE(f, g, h Ref) Ref {
	// Terminal shortcuts.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	if r, ok := m.cache.get(opITE, f, g, h); ok {
		return r
	}
	level := m.level(f)
	if l := m.level(g); l < level {
		level = l
	}
	if l := m.level(h); l < level {
		level = l
	}
	f0, f1 := m.cofactors(f, level)
	g0, g1 := m.cofactors(g, level)
	h0, h1 := m.cofactors(h, level)
	r := m.mk(level, m.ITE(f0, g0, h0), m.ITE(f1, g1, h1))
	m.cache.put(opITE, f, g, h, r)
	return r
}

// Not returns ¬f.
func (m *Manager) Not(f Ref) Ref { return m.ITE(f, False, True) }

// And returns f ∧ g. It is a specialized binary apply recursion: the two
// connectives the enumerator and preimage loops actually build skip the
// generic ITE normalization, and their commuted operand pairs share one
// cache entry.
func (m *Manager) And(f, g Ref) Ref {
	switch {
	case f == g || g == True:
		return f
	case f == True:
		return g
	case f == False || g == False:
		return False
	}
	if g < f {
		f, g = g, f
	}
	if r, ok := m.cache.get(opAnd, f, g, 0); ok {
		return r
	}
	level := m.level(f)
	if l := m.level(g); l < level {
		level = l
	}
	f0, f1 := m.cofactors(f, level)
	g0, g1 := m.cofactors(g, level)
	r := m.mk(level, m.And(f0, g0), m.And(f1, g1))
	m.cache.put(opAnd, f, g, 0, r)
	return r
}

// Or returns f ∨ g (specialized like And).
func (m *Manager) Or(f, g Ref) Ref {
	switch {
	case f == g || g == False:
		return f
	case f == False:
		return g
	case f == True || g == True:
		return True
	}
	if g < f {
		f, g = g, f
	}
	if r, ok := m.cache.get(opOr, f, g, 0); ok {
		return r
	}
	level := m.level(f)
	if l := m.level(g); l < level {
		level = l
	}
	f0, f1 := m.cofactors(f, level)
	g0, g1 := m.cofactors(g, level)
	r := m.mk(level, m.Or(f0, g0), m.Or(f1, g1))
	m.cache.put(opOr, f, g, 0, r)
	return r
}

// Xor returns f ⊕ g.
func (m *Manager) Xor(f, g Ref) Ref { return m.ITE(f, m.Not(g), g) }

// Xnor returns ¬(f ⊕ g), i.e. f ≡ g.
func (m *Manager) Xnor(f, g Ref) Ref { return m.ITE(f, g, m.Not(g)) }

// Diff returns f ∧ ¬g.
func (m *Manager) Diff(f, g Ref) Ref { return m.And(f, m.Not(g)) }

// CubeVars returns the positive-literal cube over the given variables,
// used to name quantification sets.
func (m *Manager) CubeVars(vars []lit.Var) Ref {
	// Build bottom-up in level order for linear size.
	levels := make([]int32, 0, len(vars))
	for _, v := range vars {
		levels = append(levels, m.Level(v))
	}
	// insertion sort descending (deepest first)
	for i := 1; i < len(levels); i++ {
		for j := i; j > 0 && levels[j] > levels[j-1]; j-- {
			levels[j], levels[j-1] = levels[j-1], levels[j]
		}
	}
	r := True
	for _, l := range levels {
		r = m.mk(l, False, r)
	}
	return r
}

// Eval evaluates f under a total assignment indexed by variable.
func (m *Manager) Eval(f Ref, assign []bool) bool {
	for f != True && f != False {
		n := m.nodes[f]
		v := m.order[n.level]
		val := int(v) < len(assign) && assign[v]
		if val {
			f = n.high
		} else {
			f = n.low
		}
	}
	return f == True
}
