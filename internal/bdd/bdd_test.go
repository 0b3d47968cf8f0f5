package bdd

import (
	"math/big"
	"math/rand"
	"testing"

	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
)

// truth evaluates f on every assignment over n vars and returns the bitset
// of satisfying rows (var i is bit i of the row index).
func truth(m *Manager, f Ref, n int) []bool {
	out := make([]bool, 1<<uint(n))
	assign := make([]bool, n)
	for x := range out {
		for i := 0; i < n; i++ {
			assign[i] = x&(1<<uint(i)) != 0
		}
		out[x] = m.Eval(f, assign)
	}
	return out
}

func TestTerminalsAndVar(t *testing.T) {
	m := New(3)
	if m.Eval(True, nil) != true || m.Eval(False, nil) != false {
		t.Fatal("terminal eval")
	}
	v1 := m.Var(1)
	if !m.Eval(v1, []bool{false, true, false}) || m.Eval(v1, []bool{true, false, true}) {
		t.Fatal("Var eval")
	}
	if m.NVar(1) != m.Not(v1) {
		t.Fatal("NVar should equal Not(Var)")
	}
	if m.Lit(lit.Neg(2)) != m.NVar(2) || m.Lit(lit.Pos(0)) != m.Var(0) {
		t.Fatal("Lit mismatch")
	}
}

func TestCanonicity(t *testing.T) {
	m := New(4)
	// Same function built two ways must be the same ref.
	a, b := m.Var(0), m.Var(1)
	f1 := m.Or(m.And(a, b), m.And(m.Not(a), b))
	f2 := b
	if f1 != f2 {
		t.Fatalf("canonical refs differ: %d vs %d", f1, f2)
	}
	// De Morgan.
	g1 := m.Not(m.And(a, b))
	g2 := m.Or(m.Not(a), m.Not(b))
	if g1 != g2 {
		t.Fatal("De Morgan violated")
	}
}

func TestIdempotentReduction(t *testing.T) {
	m := New(2)
	if m.ITE(m.Var(0), True, True) != True {
		t.Fatal("mk should collapse equal children")
	}
}

// randomRef builds a random function over n vars by combining literals
// with random connectives.
func randomRef(m *Manager, rng *rand.Rand, n, depth int) Ref {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(6) {
		case 0:
			return True
		case 1:
			return False
		default:
			return m.Lit(lit.New(lit.Var(rng.Intn(n)), rng.Intn(2) == 0))
		}
	}
	a := randomRef(m, rng, n, depth-1)
	b := randomRef(m, rng, n, depth-1)
	switch rng.Intn(5) {
	case 0:
		return m.And(a, b)
	case 1:
		return m.Or(a, b)
	case 2:
		return m.Xor(a, b)
	case 3:
		return m.Not(a)
	default:
		c := randomRef(m, rng, n, depth-1)
		return m.ITE(a, b, c)
	}
}

func TestOpsAgainstTruthTables(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 150; iter++ {
		n := 2 + rng.Intn(6)
		m := New(n)
		f := randomRef(m, rng, n, 4)
		g := randomRef(m, rng, n, 4)
		tf, tg := truth(m, f, n), truth(m, g, n)
		checks := []struct {
			name string
			ref  Ref
			fn   func(a, b bool) bool
		}{
			{"and", m.And(f, g), func(a, b bool) bool { return a && b }},
			{"or", m.Or(f, g), func(a, b bool) bool { return a || b }},
			{"xor", m.Xor(f, g), func(a, b bool) bool { return a != b }},
			{"xnor", m.Xnor(f, g), func(a, b bool) bool { return a == b }},
			{"diff", m.Diff(f, g), func(a, b bool) bool { return a && !b }},
			{"not", m.Not(f), func(a, b bool) bool { return !a }},
		}
		for _, c := range checks {
			tr := truth(m, c.ref, n)
			for x := range tr {
				if tr[x] != c.fn(tf[x], tg[x]) {
					t.Fatalf("iter %d: op %s wrong at row %d", iter, c.name, x)
				}
			}
		}
	}
}

func TestQuantificationAgainstTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 120; iter++ {
		n := 2 + rng.Intn(5)
		m := New(n)
		f := randomRef(m, rng, n, 4)
		tf := truth(m, f, n)
		// Random quantification set.
		var qvars []lit.Var
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				qvars = append(qvars, lit.Var(v))
			}
		}
		ex := m.ExistsVars(f, qvars)
		tex := truth(m, ex, n)
		inQ := make([]bool, n)
		for _, v := range qvars {
			inQ[v] = true
		}
		// Enumerate assignments of the q-set for each row.
		for x := 0; x < 1<<uint(n); x++ {
			anySat := false
			// vary quantified vars
			var qIdx []int
			for v := 0; v < n; v++ {
				if inQ[v] {
					qIdx = append(qIdx, v)
				}
			}
			for y := 0; y < 1<<uint(len(qIdx)); y++ {
				row := x
				for k, v := range qIdx {
					if y&(1<<uint(k)) != 0 {
						row |= 1 << uint(v)
					} else {
						row &^= 1 << uint(v)
					}
				}
				if tf[row] {
					anySat = true
				}
			}
			if tex[x] != anySat {
				t.Fatalf("iter %d: Exists wrong at row %d", iter, x)
			}
		}
	}
}

func TestAndExistsEqualsExistsOfAnd(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(6)
		m := New(n)
		f := randomRef(m, rng, n, 4)
		g := randomRef(m, rng, n, 4)
		var qvars []lit.Var
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				qvars = append(qvars, lit.Var(v))
			}
		}
		c := m.CubeVars(qvars)
		want := m.Exists(m.And(f, g), c)
		got := m.AndExists(f, g, c)
		if got != want {
			t.Fatalf("iter %d: AndExists ≠ Exists∘And", iter)
		}
	}
}

func TestSatCount(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 150; iter++ {
		n := 1 + rng.Intn(7)
		m := New(n)
		f := randomRef(m, rng, n, 4)
		tf := truth(m, f, n)
		want := 0
		for _, b := range tf {
			if b {
				want++
			}
		}
		if got := m.SatCount(f); got.Cmp(big.NewInt(int64(want))) != 0 {
			t.Fatalf("iter %d: SatCount = %v, want %d", iter, got, want)
		}
	}
}

func TestSatCountIn(t *testing.T) {
	m := New(4)
	f := m.Var(0) // depends only on v0
	got := m.SatCountIn(f, []lit.Var{0, 1})
	if got.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("SatCountIn = %v, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when support exceeds universe")
		}
	}()
	m.SatCountIn(m.And(m.Var(2), m.Var(3)), []lit.Var{2})
}

func spaceOver(n int) *cube.Space {
	vars := make([]lit.Var, n)
	for i := range vars {
		vars[i] = lit.Var(i)
	}
	return cube.NewSpace(vars)
}

func TestAnySat(t *testing.T) {
	m := New(3)
	s := spaceOver(3)
	f := m.And(m.Var(0), m.NVar(2))
	c := m.AnySat(f, s)
	if c == nil {
		t.Fatal("AnySat returned nil for satisfiable f")
	}
	model := []bool{c[0] == lit.True, c[1] == lit.True, c[2] == lit.True}
	if !m.Eval(f, model) {
		t.Fatalf("AnySat cube %v does not satisfy f", c)
	}
	if m.AnySat(False, s) != nil {
		t.Fatal("AnySat of False should be nil")
	}
}

func TestCubeVarsOrderIndependence(t *testing.T) {
	m := New(4)
	a := m.CubeVars([]lit.Var{0, 2, 3})
	b := m.CubeVars([]lit.Var{3, 0, 2})
	if a != b {
		t.Fatal("CubeVars should not depend on list order")
	}
	if m.CubeVars(nil) != True {
		t.Fatal("empty cube should be True")
	}
}

func TestLevelPanicsOnUnknownVar(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Var(5)
}

func TestDuplicateOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewOrdered([]lit.Var{1, 1})
}

func TestNumNodesMonotone(t *testing.T) {
	m := New(8)
	n0 := m.NumNodes()
	if n0 != 2 {
		t.Fatalf("fresh manager should have 2 terminal nodes, got %d", n0)
	}
	m.Var(3)
	if m.NumNodes() != 3 {
		t.Fatalf("after one Var: %d nodes", m.NumNodes())
	}
	if len(m.order) != 8 {
		t.Fatal("NumVars")
	}
}

func TestSatCountWideManagerUsesBigPath(t *testing.T) {
	// 70 variables exercises the big.Int fallback; 3 of 8 assignments over
	// the 3-var support, times 2^67 free variables.
	m := New(70)
	f := m.And(m.Var(0), m.Or(m.Var(1), m.NVar(2)))
	want := new(big.Int).Lsh(big.NewInt(3), 67)
	if got := m.SatCount(f); got.Cmp(want) != 0 {
		t.Fatalf("SatCount = %v, want %v", got, want)
	}
	// The two paths must agree on the same function where both apply.
	small := New(10)
	sf := small.And(small.Var(0), small.Or(small.Var(1), small.NVar(2)))
	if got, want := small.SatCount(sf), small.satCountBig(sf, 10); got.Cmp(want) != 0 {
		t.Fatalf("uint64 path %v != big path %v", got, want)
	}
}
