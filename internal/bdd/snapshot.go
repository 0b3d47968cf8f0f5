package bdd

import "allsatpre/internal/lit"

// Snapshot is an immutable, manager-independent serialization of a single
// BDD. The parallel enumeration pool uses it to move solution sets between
// managers: a worker exports its per-subcube set and hands the snapshot to
// the merger thread. Handing over a live (Manager, Ref) pair instead would
// race — managers are single-threaded, and the worker keeps appending
// nodes (growing the backing arrays) while the merger reads.
//
// Nodes are stored children-before-parents with the root last. A node
// reference is encoded as 0 = False, 1 = True, k+2 = snapshot node k.
// Each node carries its variable id rather than its level, so a snapshot
// can be imported into any manager whose order contains those variables.
type Snapshot struct {
	vars   []lit.Var
	lo, hi []int32
	root   int32
}

// Export serializes f into a self-contained Snapshot.
func (m *Manager) Export(f Ref) *Snapshot {
	s := &Snapshot{}
	idx := map[Ref]int32{False: 0, True: 1}
	var rec func(Ref) int32
	rec = func(r Ref) int32 {
		if out, ok := idx[r]; ok {
			return out
		}
		n := m.nodes[r]
		lo := rec(n.low)
		hi := rec(n.high)
		out := int32(len(s.vars)) + 2
		s.vars = append(s.vars, m.order[n.level])
		s.lo = append(s.lo, lo)
		s.hi = append(s.hi, hi)
		idx[r] = out
		return out
	}
	s.root = rec(f)
	return s
}

// Rename returns a snapshot whose variable ids are passed through sub
// (ids without an entry are kept). The node structure is shared with the
// receiver; only the variable table is rewritten. This lets a set be
// moved between managers with different variable spaces — e.g. a state
// set over CNF variable ids imported into a canonical-state-space
// manager. An order-preserving renaming keeps Import on the fast mk
// path; any other renaming still imports correctly via the ITE fallback.
func (s *Snapshot) Rename(sub map[lit.Var]lit.Var) *Snapshot {
	vars := make([]lit.Var, len(s.vars))
	for i, v := range s.vars {
		if w, ok := sub[v]; ok {
			v = w
		}
		vars[i] = v
	}
	return &Snapshot{vars: vars, lo: s.lo, hi: s.hi, root: s.root}
}

// Import rebuilds the snapshot inside m and returns the corresponding
// ref. Every snapshot variable must be in m's order. When the snapshot's
// relative variable order matches m's — the pool case, where every
// manager is built over the same projection order — each node maps to a
// single mk call; otherwise the node is rebuilt with ITE, which reorders
// correctly at the usual apply cost.
func (m *Manager) Import(s *Snapshot) Ref {
	refs := make([]Ref, len(s.vars))
	decode := func(x int32) Ref {
		if x < 2 {
			return Ref(x)
		}
		return refs[x-2]
	}
	for i, v := range s.vars {
		lv := m.Level(v)
		lo, hi := decode(s.lo[i]), decode(s.hi[i])
		if m.level(lo) > lv && m.level(hi) > lv {
			refs[i] = m.mk(lv, lo, hi)
		} else {
			refs[i] = m.ITE(m.Var(v), hi, lo)
		}
	}
	return decode(s.root)
}
