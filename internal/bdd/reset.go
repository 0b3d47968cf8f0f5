package bdd

import (
	"fmt"

	"allsatpre/internal/lit"
)

// Reset returns the manager to the state NewOrdered(order) produces —
// only the two terminals, an empty unique table, an invalidated apply
// cache, default limits — while keeping the node slice, unique-table
// slots, and apply-cache array at their high-water capacity.
//
// Capacity retention cannot perturb results: Refs are assigned in node
// creation order, which is driven purely by the sequence of first-time
// apply computations. A larger apply cache changes only which results
// are recomputed, and recomputing an already-computed operation creates
// no nodes (every constituent is already interned), so a Reset-reused
// manager yields bit-identical Refs to a fresh one for the same
// operation sequence. Unique-table size affects probe/rehash counters
// only. The preimage oracle's warm runs pin this contract.
func (m *Manager) Reset(order []lit.Var) {
	m.order = append(m.order[:0], order...)

	maxVar := lit.Var(-1)
	for _, v := range m.order {
		if v > maxVar {
			maxVar = v
		}
	}
	if n := int(maxVar + 1); n <= cap(m.varLevel) {
		m.varLevel = m.varLevel[:n]
	} else {
		m.varLevel = make([]int32, n)
	}
	for i := range m.varLevel {
		m.varLevel[i] = -1
	}
	for l, v := range m.order {
		if m.varLevel[v] != -1 {
			panic(fmt.Sprintf("bdd: duplicate variable %v in order", v))
		}
		m.varLevel[v] = int32(l)
	}

	m.nodes = append(m.nodes[:0],
		node{level: terminalLevel},
		node{level: terminalLevel})

	// Keep the unique table at its grown size; only the slot contents
	// must go (stale Refs would alias unrelated new nodes).
	clear(m.unique.slots)
	m.unique.lookups, m.unique.probes, m.unique.rehashes = 0, 0, 0

	// The apply cache drops in O(1) via a generation bump; its array and
	// therefore its reach stay warm for the next request.
	m.cache.invalidate()
	m.cache.lookups, m.cache.hits, m.cache.evictions = 0, 0, 0

	m.maxNodes = 0
	m.check = nil
}

// RetainedBytes estimates the heap bytes pinned by the manager's backing
// arrays while parked in a warm pool — the size-class and trimming
// signal for internal/runtime. Approximate by design (allocator rounding
// and struct headers are ignored).
func (m *Manager) RetainedBytes() uint64 {
	return uint64(cap(m.nodes))*12 +
		uint64(len(m.unique.slots))*4 +
		uint64(len(m.cache.entries))*20 +
		uint64(cap(m.order))*8 +
		uint64(cap(m.varLevel))*4
}
