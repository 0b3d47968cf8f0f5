package bdd

import (
	"math/big"

	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
)

// Exists existentially quantifies the variables of the positive cube
// (as built by CubeVars) out of f.
func (m *Manager) Exists(f, c Ref) Ref {
	if f == True || f == False {
		return f
	}
	// Skip cube variables above f.
	for c != True && m.level(c) < m.level(f) {
		c = m.nodes[c].high
	}
	if c == True {
		return f
	}
	if r, ok := m.cache.get(opExists, f, c, 0); ok {
		return r
	}
	n := m.nodes[f]
	var r Ref
	lo := m.Exists(n.low, c)
	hi := m.Exists(n.high, c)
	if m.level(c) == n.level {
		r = m.Or(lo, hi)
	} else {
		r = m.mk(n.level, lo, hi)
	}
	m.cache.put(opExists, f, c, 0, r)
	return r
}

// ExistsVars is Exists over an explicit variable list.
func (m *Manager) ExistsVars(f Ref, vars []lit.Var) Ref {
	return m.Exists(f, m.CubeVars(vars))
}

// AndExists computes ∃cube. f ∧ g without building the full conjunction —
// the relational-product operation at the heart of BDD-based image and
// preimage computation.
func (m *Manager) AndExists(f, g, cubeRef Ref) Ref {
	switch {
	case f == False || g == False:
		return False
	case f == True:
		return m.Exists(g, cubeRef)
	case g == True:
		return m.Exists(f, cubeRef)
	case f == g:
		return m.Exists(f, cubeRef)
	}
	// Drop cube variables above both operands.
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	c := cubeRef
	for c != True && m.level(c) < top {
		c = m.nodes[c].high
	}
	if c == True {
		return m.And(f, g)
	}
	if r, ok := m.cache.get(opAndExists, f, g, c); ok {
		return r
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	var r Ref
	if m.level(c) == top {
		lo := m.AndExists(f0, g0, c)
		if lo == True {
			r = True
		} else {
			hi := m.AndExists(f1, g1, c)
			r = m.Or(lo, hi)
		}
	} else {
		r = m.mk(top, m.AndExists(f0, g0, c), m.AndExists(f1, g1, c))
	}
	m.cache.put(opAndExists, f, g, c, r)
	return r
}

// SatCount returns the exact number of satisfying assignments of f over
// the manager's full variable set. Managers under 63 variables — every
// benchmark circuit — take an allocation-free uint64 path; wider ones
// fall back to big.Int arithmetic over a slice-indexed memo.
func (m *Manager) SatCount(f Ref) *big.Int {
	n := int32(len(m.order))
	if n < 63 {
		return new(big.Int).SetUint64(m.satCount64(f, n))
	}
	return m.satCountBig(f, n)
}

// satCount64 counts models with machine words: counts are bounded by
// 2^n < 2^63, so shifts and sums cannot overflow. The memo stores
// count+1 per node (0 = absent), one slice allocation total.
func (m *Manager) satCount64(f Ref, n int32) uint64 {
	memo := make([]uint64, len(m.nodes))
	levelOf := func(r Ref) int32 {
		if l := m.level(r); l != terminalLevel {
			return l
		}
		return n
	}
	var rec func(Ref) uint64 // models over variables from r's own level down
	rec = func(r Ref) uint64 {
		if r == False {
			return 0
		}
		if r == True {
			return 1
		}
		if c := memo[r]; c != 0 {
			return c - 1
		}
		nd := m.nodes[r]
		lo := rec(nd.low) << uint(levelOf(nd.low)-nd.level-1)
		hi := rec(nd.high) << uint(levelOf(nd.high)-nd.level-1)
		memo[r] = lo + hi + 1
		return lo + hi
	}
	return rec(f) << uint(levelOf(f))
}

func (m *Manager) satCountBig(f Ref, n int32) *big.Int {
	memo := make([]*big.Int, len(m.nodes))
	pows := make([]*big.Int, n+1) // lazily filled powers of two
	pow := func(k int32) *big.Int {
		if pows[k] == nil {
			pows[k] = new(big.Int).Lsh(big.NewInt(1), uint(k))
		}
		return pows[k]
	}
	levelOf := func(r Ref) int32 {
		if l := m.level(r); l != terminalLevel {
			return l
		}
		return n
	}
	var rec func(Ref) *big.Int // models over variables strictly below level(r)'s own level, counting r's level itself
	rec = func(r Ref) *big.Int {
		if r == False {
			return big.NewInt(0)
		}
		if r == True {
			return big.NewInt(1)
		}
		if c := memo[r]; c != nil {
			return c
		}
		nd := m.nodes[r]
		lo := new(big.Int).Mul(rec(nd.low), pow(levelOf(nd.low)-nd.level-1))
		hi := new(big.Int).Mul(rec(nd.high), pow(levelOf(nd.high)-nd.level-1))
		c := lo.Add(lo, hi)
		memo[r] = c
		return c
	}
	return new(big.Int).Mul(rec(f), pow(levelOf(f)))
}

// SatCountIn returns the number of satisfying assignments of f counting
// only the given variables as the universe; f's support must be a subset.
func (m *Manager) SatCountIn(f Ref, vars []lit.Var) *big.Int {
	full := m.SatCount(f)
	extra := len(m.order) - len(vars)
	if extra < 0 {
		panic("bdd: SatCountIn universe smaller than manager order")
	}
	den := new(big.Int).Exp(big.NewInt(2), big.NewInt(int64(extra)), nil)
	q, r := new(big.Int).QuoRem(full, den, new(big.Int))
	if r.Sign() != 0 {
		panic("bdd: SatCountIn: support not contained in universe")
	}
	return q
}

// AnySat returns one satisfying cube of f over the space s (or nil when
// f is False). Variables of s not in f's support come back Unknown.
func (m *Manager) AnySat(f Ref, s *cube.Space) cube.Cube {
	if f == False {
		return nil
	}
	c := s.FullCube()
	for f != True {
		n := m.nodes[f]
		v := m.order[n.level]
		pos := s.PosOf(v)
		if n.low != False {
			if pos >= 0 {
				c[pos] = lit.False
			}
			f = n.low
		} else {
			if pos >= 0 {
				c[pos] = lit.True
			}
			f = n.high
		}
	}
	return c
}

// FromCube builds the BDD of a cube over space s.
func (m *Manager) FromCube(s *cube.Space, c cube.Cube) Ref {
	r := True
	for i, t := range c {
		if t == lit.Unknown {
			continue
		}
		v := s.Vars()[i]
		if t == lit.True {
			r = m.And(r, m.Var(v))
		} else {
			r = m.And(r, m.NVar(v))
		}
	}
	return r
}

// FromCover builds the BDD of a cover (disjunction of its cubes).
func (m *Manager) FromCover(cv *cube.Cover) Ref {
	r := False
	for _, c := range cv.Cubes() {
		r = m.Or(r, m.FromCube(cv.Space(), c))
	}
	return r
}
