package bdd

import (
	"math/rand"
	"testing"

	"allsatpre/internal/lit"
)

func TestISOPDenotesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(6)
		m := New(n)
		s := spaceOver(n)
		f := randomRef(m, rng, n, 4)
		cv := m.ISOP(f, s)
		if back := m.FromCover(cv); back != f {
			t.Fatalf("iter %d: ISOP cover does not denote f", iter)
		}
	}
}

// countPaths counts the 1-paths of f: the size of the path-enumeration
// cover ISOP is compared against.
func countPaths(m *Manager, f Ref) int {
	switch f {
	case False:
		return 0
	case True:
		return 1
	}
	n := m.nodes[f]
	return countPaths(m, n.low) + countPaths(m, n.high)
}

func TestISOPNeverWorseThanPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	worse := 0
	for iter := 0; iter < 120; iter++ {
		n := 3 + rng.Intn(5)
		m := New(n)
		s := spaceOver(n)
		f := randomRef(m, rng, n, 5)
		isop := m.ISOP(f, s).Len()
		paths := countPaths(m, f)
		if isop > paths {
			worse++
		}
	}
	// ISOP is not theoretically guaranteed smaller on every instance, but
	// it should essentially never lose to raw path enumeration.
	if worse > 2 {
		t.Fatalf("ISOP worse than path cover on %d/120 instances", worse)
	}
}

func TestISOPIrredundant(t *testing.T) {
	// Dropping any single cube must lose minterms.
	rng := rand.New(rand.NewSource(161))
	for iter := 0; iter < 60; iter++ {
		n := 3 + rng.Intn(4)
		m := New(n)
		s := spaceOver(n)
		f := randomRef(m, rng, n, 4)
		if f == False {
			continue
		}
		cv := m.ISOP(f, s)
		cubes := cv.Cubes()
		for drop := range cubes {
			r := False
			for i, cb := range cubes {
				if i == drop {
					continue
				}
				r = m.Or(r, m.FromCube(s, cb))
			}
			if r == f {
				t.Fatalf("iter %d: cube %d is redundant", iter, drop)
			}
		}
	}
}

func TestISOPClassicWin(t *testing.T) {
	// f = x0 ∨ x1 ∨ x2 ∨ x3: path enumeration yields a staircase of
	// cubes; ISOP yields exactly the 4 single-literal primes.
	m := New(4)
	s := spaceOver(4)
	f := m.Or(m.Or(m.Var(0), m.Var(1)), m.Or(m.Var(2), m.Var(3)))
	cv := m.ISOP(f, s)
	if cv.Len() != 4 {
		t.Fatalf("ISOP of a 4-way OR should have 4 cubes, got %d:\n%s", cv.Len(), cv)
	}
	for _, cb := range cv.Cubes() {
		if len(cb)-cb.FreeVars() != 1 {
			t.Fatalf("expected single-literal primes, got %s", cb)
		}
	}
	if got := m.SatCount(m.FromCover(cv)); got.Int64() != 15 {
		t.Fatalf("cover minterms %v, want 15", got)
	}
}

func TestISOPTerminals(t *testing.T) {
	m := New(2)
	s := spaceOver(2)
	if m.ISOP(False, s).Len() != 0 {
		t.Fatal("ISOP(0) should be empty")
	}
	cv := m.ISOP(True, s)
	if cv.Len() != 1 || cv.Cubes()[0].FreeVars() != 2 {
		t.Fatal("ISOP(1) should be the universal cube")
	}
	// Count cross-check on a literal.
	cv = m.ISOP(m.Var(1), s)
	if cv.Len() != 1 || cv.Cubes()[0].Minterms() != m.SatCount(m.Var(1)).Uint64() {
		t.Fatal("literal count mismatch")
	}
	_ = lit.Var(0)
}
