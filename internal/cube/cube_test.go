package cube

import (
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"allsatpre/internal/lit"
)

func space(n int) *Space {
	vars := make([]lit.Var, n)
	for i := range vars {
		vars[i] = lit.Var(i)
	}
	return NewSpace(vars)
}

func TestSpaceBasics(t *testing.T) {
	s := space(4)
	if s.Size() != 4 {
		t.Fatal("size")
	}
	if s.PosOf(2) != 2 || s.PosOf(9) != -1 {
		t.Fatal("PosOf")
	}
	if s.Name(1) != "v1" {
		t.Errorf("Name = %q", s.Name(1))
	}
	ns := NewNamedSpace([]lit.Var{5, 6}, []string{"a", "b"})
	if ns.Name(0) != "a" || ns.Name(1) != "b" {
		t.Error("named space names")
	}
}

func TestSpacePanics(t *testing.T) {
	mustPanic(t, func() { NewSpace([]lit.Var{1, 1}) })
	mustPanic(t, func() { NewNamedSpace([]lit.Var{1}, []string{"a", "b"}) })
	s := space(2)
	mustPanic(t, func() { s.CubeOf("1") })
	mustPanic(t, func() { s.CubeOf("1z") })
	mustPanic(t, func() { NewCover(s).Add(Cube{lit.True}) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestCubeOfAndString(t *testing.T) {
	s := space(5)
	c := s.CubeOf("01X-x")
	if c.String() != "01XXX" {
		t.Errorf("String = %q", c.String())
	}
	if c.FreeVars() != 3 {
		t.Error("free/fixed counts")
	}
	if c.Minterms() != 8 {
		t.Errorf("Minterms = %d", c.Minterms())
	}
}

func TestFromModel(t *testing.T) {
	s := NewSpace([]lit.Var{3, 1})
	c := s.FromModel([]bool{false, true, false, true})
	if c.String() != "11" {
		t.Errorf("FromModel = %q", c.String())
	}
	// Model shorter than variables: missing vars read false.
	c2 := s.FromModel([]bool{false, true})
	if c2.String() != "01" {
		t.Errorf("FromModel short = %q", c2.String())
	}
}

func TestContainsIntersectDisjoint(t *testing.T) {
	s := space(4)
	big := s.CubeOf("1XXX")
	small := s.CubeOf("10X1")
	if !big.Contains(small) || small.Contains(big) {
		t.Error("containment")
	}
	if got := intersect(big, small); got == nil || got.String() != "10X1" {
		t.Errorf("intersect = %v", got)
	}
	other := s.CubeOf("0XXX")
	if intersect(big, other) != nil {
		t.Error("disjoint cubes should not intersect")
	}
	if !big.Disjoint(other) || big.Disjoint(small) {
		t.Error("Disjoint mismatch")
	}
	x := s.CubeOf("X1XX")
	got := intersect(big, x)
	if got == nil || got.String() != "11XX" {
		t.Errorf("intersect with free = %v", got)
	}
}

func TestContainsMinterm(t *testing.T) {
	s := space(3)
	c := s.CubeOf("1X0")
	if !c.ContainsMinterm([]bool{true, false, false}) {
		t.Error("should contain 100")
	}
	if !c.ContainsMinterm([]bool{true, true, false}) {
		t.Error("should contain 110")
	}
	if c.ContainsMinterm([]bool{true, true, true}) {
		t.Error("should not contain 111")
	}
}

func TestMintermsOverflowPanics(t *testing.T) {
	s := space(63)
	mustPanic(t, func() { s.FullCube().Minterms() })
}

func TestCoverReduce(t *testing.T) {
	s := space(3)
	cv := NewCover(s)
	cv.Add(s.CubeOf("1XX"))
	cv.Add(s.CubeOf("11X")) // contained
	cv.Add(s.CubeOf("1XX")) // duplicate
	cv.Add(s.CubeOf("0X0"))
	cv.Reduce()
	if cv.Len() != 2 {
		t.Fatalf("Reduce left %d cubes: %v", cv.Len(), cv.SortedKeys())
	}
}

// reduceQuadratic is the reference Reduce: sort bigger-first in pattern
// order, then keep each cube no kept cube contains, scanning every kept
// cube.
func reduceQuadratic(cubes []Cube) []Cube {
	cubes = append([]Cube(nil), cubes...)
	sort.Slice(cubes, func(i, j int) bool {
		fi, fj := cubes[i].FreeVars(), cubes[j].FreeVars()
		if fi != fj {
			return fi > fj
		}
		return cubes[i].less(cubes[j])
	})
	var kept []Cube
	for _, c := range cubes {
		contained := false
		for _, k := range kept {
			if k.Contains(c) {
				contained = true
				break
			}
		}
		if !contained {
			kept = append(kept, c)
		}
	}
	return kept
}

// TestReduceMatchesQuadratic: on random covers with heavy duplication —
// mixed widths, and the single-width covers that projections of full
// models produce — Reduce keeps exactly the reference's cubes, in the
// reference's order.
func TestReduceMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 400; iter++ {
		s := space(1 + rng.Intn(10))
		distinct := randomCover(rng, s, 1+rng.Intn(12)).Cubes()
		if iter%2 == 1 {
			for _, c := range distinct {
				for j := range c {
					if c[j] == lit.Unknown {
						c[j] = lit.TernOf(rng.Intn(2) == 0)
					}
				}
			}
		}
		cv := NewCover(s)
		for i := 0; i < 5*len(distinct); i++ {
			cv.Add(distinct[rng.Intn(len(distinct))].Clone())
		}
		want := reduceQuadratic(cv.Cubes())
		cv.Reduce()
		if got := cv.Cubes(); !slices.EqualFunc(got, want, slices.Equal[Cube]) {
			t.Fatalf("iter %d: Reduce = %v, reference %v", iter, got, want)
		}
	}
}

// TestDisjointCount: the summed count of a pairwise-disjoint cover
// equals its exact minterm count, and stays exact past 62 free
// positions.
func TestDisjointCount(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for iter := 0; iter < 200; iter++ {
		s := space(1 + rng.Intn(8))
		cv := NewCover(s)
		// Split the full space into disjoint cubes by random Shannon
		// expansion, keeping a random subset of the leaves.
		var split func(c Cube)
		split = func(c Cube) {
			free := -1
			for j := range c {
				if c[j] == lit.Unknown {
					free = j
					break
				}
			}
			if free < 0 || rng.Intn(3) == 0 {
				if rng.Intn(4) != 0 {
					cv.Add(c)
				}
				return
			}
			for _, v := range []lit.Tern{lit.False, lit.True} {
				d := c.Clone()
				d[free] = v
				split(d)
			}
		}
		split(s.FullCube())
		if got, want := cv.DisjointCount(), countMinterms(cv); got.Uint64() != want || !got.IsUint64() {
			t.Fatalf("iter %d: DisjointCount = %v, want %d\n%s", iter, got, want, cv)
		}
	}
	wide := space(70)
	cv := NewCover(wide)
	c := wide.FullCube()
	c[0] = lit.True
	cv.Add(c)
	d := wide.FullCube()
	d[0], d[1] = lit.False, lit.False
	cv.Add(d)
	want := new(big.Int).Lsh(big.NewInt(1), 69)
	want.Add(want, new(big.Int).Lsh(big.NewInt(1), 68))
	if got := cv.DisjointCount(); got.Cmp(want) != 0 {
		t.Fatalf("70-var DisjointCount = %v, want %v", got, want)
	}
	if got := NewCover(wide).DisjointCount(); got.Sign() != 0 {
		t.Fatalf("empty cover counts %v", got)
	}
}

func bruteCount(cv *Cover) uint64 {
	n := cv.Space().Size()
	var cnt uint64
	m := make([]bool, n)
	for x := 0; x < 1<<uint(n); x++ {
		for i := 0; i < n; i++ {
			m[i] = x&(1<<uint(i)) != 0
		}
		if cv.Contains(m) {
			cnt++
		}
	}
	return cnt
}

func randomCover(rng *rand.Rand, s *Space, nCubes int) *Cover {
	cv := NewCover(s)
	for i := 0; i < nCubes; i++ {
		c := s.FullCube()
		for j := range c {
			switch rng.Intn(3) {
			case 0:
				c[j] = lit.True
			case 1:
				c[j] = lit.False
			}
		}
		cv.Add(c)
	}
	return cv
}

// countMinterms returns the exact number of minterms a cover denotes,
// computed by disjointing it cube by cube with sharp: the reference that
// DisjointCount is checked against. Exponential in the worst case.
func countMinterms(cv *Cover) uint64 {
	var total uint64
	for ci, c := range cv.cubes {
		// Subtract every earlier cube from c, leaving disjoint fragments.
		work := []Cube{c.Clone()}
		for pi := 0; pi < ci && len(work) > 0; pi++ {
			var next []Cube
			for _, w := range work {
				next = append(next, sharp(w, cv.cubes[pi])...)
			}
			work = next
		}
		for _, w := range work {
			total += w.Minterms()
		}
	}
	return total
}

// intersect returns the conjunction of two cubes, or nil if they are
// disjoint.
func intersect(c, d Cube) Cube {
	out := make(Cube, len(c))
	for i := range c {
		switch {
		case c[i] == lit.Unknown:
			out[i] = d[i]
		case d[i] == lit.Unknown || d[i] == c[i]:
			out[i] = c[i]
		default:
			return nil
		}
	}
	return out
}

func TestCountMintermsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		s := space(1 + rng.Intn(8))
		cv := randomCover(rng, s, rng.Intn(6))
		want := bruteCount(cv)
		if got := countMinterms(cv); got != want {
			t.Fatalf("iter %d: countMinterms = %d, want %d\n%s", iter, got, want, cv)
		}
	}
}

func TestCountMintermsAfterReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 100; iter++ {
		s := space(2 + rng.Intn(6))
		cv := randomCover(rng, s, 1+rng.Intn(5))
		want := countMinterms(cv)
		cv.Reduce()
		if got := countMinterms(cv); got != want {
			t.Fatalf("iter %d: Reduce changed minterms %d -> %d", iter, want, got)
		}
	}
}

func TestCoverEqual(t *testing.T) {
	s := space(3)
	a := NewCover(s)
	a.Add(s.CubeOf("1XX"))
	b := NewCover(s)
	b.Add(s.CubeOf("11X"))
	b.Add(s.CubeOf("10X"))
	if !a.Equal(b) {
		t.Error("split cover should equal whole cube")
	}
	b.Add(s.CubeOf("0X0"))
	if a.Equal(b) {
		t.Error("covers differ after adding a cube")
	}
	c := NewCover(space(2))
	if a.Equal(c) {
		t.Error("different spaces cannot be equal")
	}
}

func TestCoverEqualRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 120; iter++ {
		s := space(2 + rng.Intn(6))
		a := randomCover(rng, s, rng.Intn(5))
		b := randomCover(rng, s, rng.Intn(5))
		want := true
		n := s.Size()
		m := make([]bool, n)
		for x := 0; x < 1<<uint(n) && want; x++ {
			for i := 0; i < n; i++ {
				m[i] = x&(1<<uint(i)) != 0
			}
			if a.Contains(m) != b.Contains(m) {
				want = false
			}
		}
		if got := a.Equal(b); got != want {
			t.Fatalf("iter %d: Equal = %v, want %v\nA:\n%sB:\n%s", iter, got, want, a, b)
		}
	}
}

func TestSharpProperties(t *testing.T) {
	// For random cubes w, p: sharp(w,p) fragments are disjoint from p,
	// pairwise disjoint, contained in w, and together with w∩p cover w.
	f := func(wRaw, pRaw [6]uint8) bool {
		s := space(6)
		w, p := s.FullCube(), s.FullCube()
		for i := 0; i < 6; i++ {
			w[i] = lit.Tern(wRaw[i] % 3)
			p[i] = lit.Tern(pRaw[i] % 3)
		}
		frags := sharp(w, p)
		var total uint64
		for i, f1 := range frags {
			if !w.Contains(f1) {
				return false
			}
			if !f1.Disjoint(p) {
				return false
			}
			for j := i + 1; j < len(frags); j++ {
				if !f1.Disjoint(frags[j]) {
					return false
				}
			}
			total += f1.Minterms()
		}
		inter := intersect(w, p)
		var interCnt uint64
		if inter != nil {
			interCnt = inter.Minterms()
		}
		return total+interCnt == w.Minterms()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSortedKeysStable(t *testing.T) {
	s := space(2)
	cv := NewCover(s)
	cv.Add(s.CubeOf("1X"))
	cv.Add(s.CubeOf("01"))
	k := cv.SortedKeys()
	if len(k) != 2 || k[0] != "01" || k[1] != "1X" {
		t.Errorf("SortedKeys = %v", k)
	}
}
