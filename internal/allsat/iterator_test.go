package allsat

import (
	"math/big"
	"math/rand"
	"testing"

	"allsatpre/internal/bdd"
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
			if !it.Exhausted() {
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
	if it.Exhausted() {
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
	if !it.Exhausted() {
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
