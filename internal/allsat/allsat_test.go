package allsat

import (
	"math/big"
	"math/rand"
	"testing"

	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
)

func projSpace(vars ...int) *cube.Space {
	vs := make([]lit.Var, len(vars))
	for i, v := range vars {
		vs[i] = lit.Var(v)
	}
	return cube.NewSpace(vs)
}

func randomFormula(rng *rand.Rand, nVars, nClauses, k int) *cnf.Formula {
	f := cnf.New(nVars)
	for i := 0; i < nClauses; i++ {
		c := make(cnf.Clause, 0, k)
		for len(c) < k {
			v := lit.Var(rng.Intn(nVars))
			dup := false
			for _, x := range c {
				if x.Var() == v {
					dup = true
					break
				}
			}
			if !dup {
				c = append(c, lit.New(v, rng.Intn(2) == 0))
			}
		}
		f.AddClause(c)
	}
	return f
}

// wantProjections computes the ground-truth projection set by brute force.
func wantProjections(f *cnf.Formula, space *cube.Space) map[string]bool {
	return f.ProjectedModels(space.Vars())
}

// gotProjections expands a result cover into the set of projected
// minterm strings.
func gotProjections(r *Result) map[string]bool {
	out := make(map[string]bool)
	n := r.Space.Size()
	m := make([]bool, n)
	for x := 0; x < 1<<uint(n); x++ {
		for i := 0; i < n; i++ {
			m[i] = x&(1<<uint(i)) != 0
		}
		if r.Cover.Contains(m) {
			buf := make([]byte, n)
			for i := range m {
				if m[i] {
					buf[i] = '1'
				} else {
					buf[i] = '0'
				}
			}
			out[string(buf)] = true
		}
	}
	return out
}

func sameSet(t *testing.T, tag string, want, got map[string]bool) {
	t.Helper()
	for k := range want {
		if !got[k] {
			t.Fatalf("%s: missing projection %s", tag, k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Fatalf("%s: spurious projection %s", tag, k)
		}
	}
}

func TestBlockingAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for iter := 0; iter < 200; iter++ {
		nVars := 3 + rng.Intn(8)
		f := randomFormula(rng, nVars, 1+rng.Intn(4*nVars), 3)
		nProj := 1 + rng.Intn(nVars)
		vars := rng.Perm(nVars)[:nProj]
		space := projSpace(vars...)
		want := wantProjections(f, space)
		r := EnumerateBlocking(f.Clone(), space, Options{})
		if r.Aborted {
			t.Fatalf("iter %d: unexpected abort", iter)
		}
		sameSet(t, "blocking", want, gotProjections(r))
		if r.Count.Cmp(big.NewInt(int64(len(want)))) != 0 {
			t.Fatalf("iter %d: count %v, want %d", iter, r.Count, len(want))
		}
		// Blocking cubes are full minterms: one cube per projection.
		if int(r.Stats.Cubes) != len(want) {
			t.Fatalf("iter %d: %d cubes, want %d", iter, r.Stats.Cubes, len(want))
		}
	}
}

func TestLiftingAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for iter := 0; iter < 200; iter++ {
		nVars := 3 + rng.Intn(8)
		f := randomFormula(rng, nVars, 1+rng.Intn(4*nVars), 3)
		nProj := 1 + rng.Intn(nVars)
		vars := rng.Perm(nVars)[:nProj]
		space := projSpace(vars...)
		want := wantProjections(f, space)
		r := EnumerateLifting(f.Clone(), space, Options{})
		sameSet(t, "lifting", want, gotProjections(r))
		if r.Count.Cmp(big.NewInt(int64(len(want)))) != 0 {
			t.Fatalf("iter %d: count %v, want %d", iter, r.Count, len(want))
		}
		// Lifting can only reduce the number of cubes relative to
		// blocking, never produce more cubes than projections.
		if int(r.Stats.Cubes) > len(want) {
			t.Fatalf("iter %d: %d cubes for %d projections", iter, r.Stats.Cubes, len(want))
		}
	}
}

func TestLiftingCubesAreSound(t *testing.T) {
	// Every cube the lifting engine emits must be entirely inside the
	// projection (checked cube-by-cube, not just as a union).
	rng := rand.New(rand.NewSource(303))
	for iter := 0; iter < 120; iter++ {
		nVars := 3 + rng.Intn(7)
		f := randomFormula(rng, nVars, 1+rng.Intn(3*nVars), 3)
		nProj := 1 + rng.Intn(nVars)
		vars := rng.Perm(nVars)[:nProj]
		space := projSpace(vars...)
		want := wantProjections(f, space)
		r := EnumerateLifting(f.Clone(), space, Options{})
		n := space.Size()
		m := make([]bool, n)
		for _, c := range r.Cover.Cubes() {
			for x := 0; x < 1<<uint(n); x++ {
				for i := 0; i < n; i++ {
					m[i] = x&(1<<uint(i)) != 0
				}
				if !c.ContainsMinterm(m) {
					continue
				}
				buf := make([]byte, n)
				for i := range m {
					if m[i] {
						buf[i] = '1'
					} else {
						buf[i] = '0'
					}
				}
				if !want[string(buf)] {
					t.Fatalf("iter %d: cube %s covers non-solution %s", iter, c, buf)
				}
			}
		}
	}
}

func TestUnsatFormula(t *testing.T) {
	f := cnf.New(2)
	f.Add(lit.Pos(0))
	f.Add(lit.Neg(0))
	for _, enum := range []func(*cnf.Formula, *cube.Space, Options) *Result{
		EnumerateBlocking, EnumerateLifting,
	} {
		r := enum(f.Clone(), projSpace(0, 1), Options{})
		if r.Cover.Len() != 0 || r.Count.Sign() != 0 {
			t.Fatal("UNSAT formula should yield empty cover")
		}
	}
}

func TestTautologyFullSpace(t *testing.T) {
	// Empty clause set: every projection is a solution. The first lifted
	// cube should be fully free and cover everything.
	f := cnf.New(3)
	r := EnumerateLifting(f.Clone(), projSpace(0, 1, 2), Options{})
	if r.Count.Cmp(big.NewInt(8)) != 0 {
		t.Fatalf("count %v, want 8", r.Count)
	}
	if r.Stats.Cubes != 1 {
		t.Fatalf("want a single universal cube, got %d", r.Stats.Cubes)
	}
}

func TestMaxCubesAborts(t *testing.T) {
	f := cnf.New(4) // tautology over 4 vars: 16 projections
	r := EnumerateBlocking(f.Clone(), projSpace(0, 1, 2, 3), Options{Budget: budget.Budget{MaxCubes: 3}})
	if !r.Aborted {
		t.Fatal("expected abort")
	}
	if r.Stats.Cubes != 3 {
		t.Fatalf("enumerated %d cubes, want 3", r.Stats.Cubes)
	}
}

// TestCubeCapAtExactCount: a cube cap equal to a run's exact cube count
// ends the run complete, and one cube less cuts it, for every cube
// engine and worker count, and the counters count the kept cubes alone.
// (x1 ∨ x2) ∧ (¬x1 ∨ x3) has four solutions over three variables.
func TestCubeCapAtExactCount(t *testing.T) {
	f := cnf.New(3)
	f.Add(lit.Pos(0), lit.Pos(1))
	f.Add(lit.Neg(0), lit.Pos(2))
	space := projSpace(0, 1, 2)
	for _, eng := range []Engine{Blocking, Lifting, Disjoint} {
		for _, workers := range []int{1, 2} {
			full := enumerate(f.Clone(), space, Options{Workers: workers}, eng)
			total := uint64(full.Cover.Len())
			if full.Aborted || total < 2 {
				t.Fatalf("engine %d workers %d: uncut run of %d cubes aborted=%v", eng, workers, total, full.Aborted)
			}
			for _, cap := range []uint64{total, total - 1} {
				r := enumerate(f.Clone(), space, Options{Workers: workers, Budget: budget.Budget{MaxCubes: cap}}, eng)
				wantCut := cap < total
				if r.Aborted != wantCut || uint64(r.Cover.Len()) != cap || r.Stats.Cubes != cap || r.Stats.Solutions != cap {
					t.Fatalf("engine %d workers %d cap %d of %d: %d cubes (stats: %d cubes, %d solutions), aborted=%v (%v), want aborted=%v",
						eng, workers, cap, total, r.Cover.Len(), r.Stats.Cubes, r.Stats.Solutions, r.Aborted, r.Reason, wantCut)
				}
				if wantCut && r.Reason != budget.Cubes {
					t.Fatalf("engine %d workers %d cap %d: reason %v, want the cube cap", eng, workers, cap, r.Reason)
				}
			}
		}
	}
}

func TestLiftOrderLastToFirst(t *testing.T) {
	// f = (x0 ∨ x1) under the model x0 = x1 = 1: either variable alone
	// can be freed, not both. Lifting tries positions from the last to
	// the first, so it frees x1 and keeps x0.
	f := cnf.New(2)
	f.Add(lit.Pos(0), lit.Pos(1))
	ml := newModelLifter(f, projSpace(0, 1))
	if got := ml.lift([]bool{true, true}).String(); got != "1X" {
		t.Fatalf("lifted cube = %s, want 1X", got)
	}
}

func TestProjectionVariableOutsideClauses(t *testing.T) {
	// A projection variable that appears in no clause must be free in the
	// result (both engines).
	f := cnf.New(3)
	f.Add(lit.Pos(0), lit.Pos(1))
	space := projSpace(0, 2)
	want := wantProjections(f, space)
	for _, tc := range []struct {
		name string
		enum func(*cnf.Formula, *cube.Space, Options) *Result
	}{
		{"blocking", EnumerateBlocking},
		{"lifting", EnumerateLifting},
	} {
		r := tc.enum(f.Clone(), space, Options{})
		sameSet(t, tc.name, want, gotProjections(r))
	}
}

func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	f := randomFormula(rng, 8, 20, 3)
	space := projSpace(0, 1, 2)
	r := EnumerateBlocking(f.Clone(), space, Options{})
	if r.Stats.Solutions != r.Stats.Cubes {
		t.Error("blocking: one cube per solution expected")
	}
	if r.Stats.BlockingClauses != r.Stats.Cubes && r.Stats.BlockingClauses != r.Stats.Cubes-1 {
		// The last cube may cover the whole space and skip its clause.
		t.Errorf("blocking clauses %d vs cubes %d", r.Stats.BlockingClauses, r.Stats.Cubes)
	}
	if r.Stats.BDDNodes != 0 {
		t.Errorf("blocking: BDDNodes = %d; its disjoint cubes are counted by summation", r.Stats.BDDNodes)
	}
	if l := EnumerateLifting(f.Clone(), space, Options{}); l.Stats.BDDNodes == 0 {
		t.Error("lifting: BDD node count missing")
	}
}

func TestLiftingShortensBlockingClauses(t *testing.T) {
	// On a wide OR, models lift to tiny cubes; blocking stays full width.
	n := 10
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
	rb := EnumerateBlocking(f.Clone(), space, Options{})
	rl := EnumerateLifting(f.Clone(), space, Options{})
	if rb.Count.Cmp(rl.Count) != 0 {
		t.Fatalf("engines disagree: %v vs %v", rb.Count, rl.Count)
	}
	if rl.Stats.Cubes >= rb.Stats.Cubes {
		t.Fatalf("lifting should use fewer cubes: %d vs %d", rl.Stats.Cubes, rb.Stats.Cubes)
	}
	avgB := float64(rb.Stats.BlockingLits) / float64(rb.Stats.BlockingClauses)
	avgL := float64(rl.Stats.BlockingLits) / float64(rl.Stats.BlockingClauses)
	if avgL >= avgB {
		t.Fatalf("lifted blocking clauses should be shorter: %.1f vs %.1f", avgL, avgB)
	}
}
