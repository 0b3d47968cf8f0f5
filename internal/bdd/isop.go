package bdd

import (
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
)

// ISOP computes an irredundant sum-of-products cover of f over the space
// s using the Minato–Morreale interval recursion. The result denotes
// exactly f but typically needs far fewer cubes than a raw 1-path
// enumeration, because each recursion step is free to enlarge
// cubes anywhere inside the [onset, onset] interval left after removing
// what earlier cubes already cover.
//
// Every support variable of f must be in s.
func (m *Manager) ISOP(f Ref, s *cube.Space) *cube.Cover {
	cv := cube.NewCover(s)
	cur := s.FullCube()
	m.isopRec(f, f, s, cur, cv)
	return cv
}

// isopRec emits cubes covering at least L and at most U under the
// partial cube cur, returning the function the emitted cubes denote
// (restricted to the subspace below cur).
func (m *Manager) isopRec(L, U Ref, s *cube.Space, cur cube.Cube, cv *cube.Cover) Ref {
	if L == False {
		return False
	}
	if U == True {
		cv.Add(cur.Clone())
		return True
	}
	// Top level among L and U.
	level := m.level(L)
	if l := m.level(U); l < level {
		level = l
	}
	v := m.order[level]
	pos := s.PosOf(v)
	if pos < 0 {
		panic("bdd: ISOP support variable not in space")
	}
	L0, L1 := m.cofactors(L, level)
	U0, U1 := m.cofactors(U, level)

	// Minterms that can only be covered with ¬v (resp. v).
	Lp0 := m.And(L0, m.Not(U1))
	Lp1 := m.And(L1, m.Not(U0))

	cur[pos] = lit.False
	f0 := m.isopRec(Lp0, U0, s, cur, cv)
	cur[pos] = lit.True
	f1 := m.isopRec(Lp1, U1, s, cur, cv)
	cur[pos] = lit.Unknown

	// Remainder, coverable without mentioning v.
	Ld := m.Or(m.And(L0, m.Not(f0)), m.And(L1, m.Not(f1)))
	fd := m.isopRec(Ld, m.And(U0, U1), s, cur, cv)

	return m.ITE(m.Var(v), m.Or(f1, fd), m.Or(f0, fd))
}
