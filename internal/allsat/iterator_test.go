package allsat

import (
	"math/big"
	"math/rand"
	"testing"

	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
)

func drain(it *Iterator, space *cube.Space) *Cover {
	cv := cube.NewCover(space)
	for {
		c, ok := it.Next()
		if !ok {
			return &Cover{cv}
		}
		cv.Add(c)
	}
}

// Cover is a tiny wrapper to keep the helper local.
type Cover struct{ *cube.Cover }

func TestIteratorMatchesBatchEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for iter := 0; iter < 80; iter++ {
		nVars := 3 + rng.Intn(7)
		f := randomFormula(rng, nVars, 1+rng.Intn(3*nVars), 3)
		nProj := 1 + rng.Intn(nVars)
		vars := rng.Perm(nVars)[:nProj]
		space := projSpace(vars...)
		for _, lift := range []bool{false, true} {
			batch := EnumerateBlocking(f.Clone(), space, Options{})
			it := NewIterator(f.Clone(), space, Options{}, lift)
			got := drain(it, space)
			m, n := countCoverMinterms(got.Cover), batch.Count
			if m.Cmp(n) != 0 {
				t.Fatalf("iter %d lift=%v: iterator %v vs batch %v", iter, lift, m, n)
			}
			if !it.done {
				t.Fatal("drained iterator should be exhausted")
			}
			if _, ok := it.Next(); ok {
				t.Fatal("Next after exhaustion should fail")
			}
		}
	}
}

// countCoverMinterms counts a (possibly overlapping) cover exactly,
// through its BDD over the cover's space.
func countCoverMinterms(cv *cube.Cover) *big.Int {
	m := bdd.NewOrdered(cv.Space().Vars())
	return m.SatCount(m.FromCover(cv))
}

func TestIteratorEarlyStop(t *testing.T) {
	// Take only the first 3 solutions of a 16-solution space.
	f := cnf.New(4)
	space := projSpace(0, 1, 2, 3)
	it := NewIterator(f, space, Options{}, false)
	seen := 0
	for seen < 3 {
		if _, ok := it.Next(); !ok {
			t.Fatal("premature exhaustion")
		}
		seen++
	}
	if it.done {
		t.Fatal("iterator should still have work")
	}
	if st := it.Stats(); st.Cubes != 3 {
		t.Fatalf("stats cubes = %d, want 3", st.Cubes)
	}
}

func TestIteratorUnsat(t *testing.T) {
	f := cnf.New(1)
	f.Add(lit.Pos(0))
	f.Add(lit.Neg(0))
	it := NewIterator(f, projSpace(0), Options{}, false)
	if _, ok := it.Next(); ok {
		t.Fatal("UNSAT formula should yield nothing")
	}
	if !it.done {
		t.Fatal("should be exhausted")
	}
}

func TestIteratorLiftedCubesOverlapButConverge(t *testing.T) {
	// Wide OR: lifting yields few large cubes whose union is correct.
	n := 8
	f := cnf.New(n)
	c := make(cnf.Clause, n)
	for i := range c {
		c[i] = lit.Pos(lit.Var(i))
	}
	f.AddClause(c)
	vars := make([]int, n)
	for i := range vars {
		vars[i] = i
	}
	space := projSpace(vars...)
	it := NewIterator(f.Clone(), space, Options{}, true)
	got := drain(it, space)
	want := EnumerateBlocking(f.Clone(), space, Options{})
	if countCoverMinterms(got.Cover).Cmp(want.Count) != 0 {
		t.Fatal("lifted iterator union wrong")
	}
	if st := it.Stats(); st.Cubes >= want.Stats.Cubes {
		t.Fatalf("lifting should need fewer cubes: %d vs %d", st.Cubes, want.Stats.Cubes)
	}
}

// TestIteratorsHonorCubeCap: Budget.MaxCubes bounds every streaming
// iterator, not only the Enumerate* loops. Over a 4-variable parity
// constraint (8 models, none of which lifting or implicant shrinking can
// merge) a cap of 2 ends each stream after exactly 2 cubes with
// budget.Cubes; a cap above the model count lets the stream finish.
func TestIteratorsHonorCubeCap(t *testing.T) {
	parity := func() *cnf.Formula {
		f := cnf.New(4)
		for m := 0; m < 16; m++ {
			bits := 0
			c := make(cnf.Clause, 4)
			for v := 0; v < 4; v++ {
				on := m>>v&1 == 1
				if on {
					bits++
				}
				c[v] = lit.New(lit.Var(v), on) // false under m
			}
			if bits%2 == 0 {
				f.AddClause(c) // rule out the even-parity minterms
			}
		}
		return f
	}
	space := projSpace(0, 1, 2, 3)
	iterators := []struct {
		name string
		mk   func(Options) CubeIterator
	}{
		{"blocking", func(o Options) CubeIterator { return NewIterator(parity(), space, o, false) }},
		{"lifting", func(o Options) CubeIterator { return NewIterator(parity(), space, o, true) }},
		{"disjoint", func(o Options) CubeIterator { return NewDisjointIterator(parity(), space, o) }},
		{"parallel-blocking", func(o Options) CubeIterator {
			o.Workers = 2
			return NewParallelIterator(parity(), space, o, false)
		}},
		{"parallel-lifting", func(o Options) CubeIterator {
			o.Workers = 4
			return NewParallelIterator(parity(), space, o, true)
		}},
		{"parallel-disjoint", func(o Options) CubeIterator {
			o.Workers = 2
			return NewEngineIterator(parity(), space, o, Disjoint)
		}},
	}
	for _, tc := range iterators {
		for _, lim := range []struct {
			max    uint64
			cubes  int
			reason budget.Reason
		}{{2, 2, budget.Cubes}, {100, 8, budget.None}} {
			it := tc.mk(Options{Budget: budget.Budget{MaxCubes: lim.max}})
			n := 0
			for {
				if _, ok := it.Next(); !ok {
					break
				}
				n++
			}
			if n != lim.cubes || it.Reason() != lim.reason {
				t.Errorf("%s, MaxCubes %d: %d cubes, reason %v; want %d, %v",
					tc.name, lim.max, n, it.Reason(), lim.cubes, lim.reason)
			}
			it.Close()
		}
	}
}
