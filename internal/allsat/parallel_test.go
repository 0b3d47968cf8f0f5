package allsat

import (
	"math/rand"
	"testing"

	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	"allsatpre/internal/partition"
	"allsatpre/internal/simplify"
)

// coverSet builds the canonical BDD of a cover so parallel and
// sequential runs can be compared as solution sets (lifting covers are
// representation-dependent; the denoted set is not).
func coverSet(m *bdd.Manager, cv *cube.Cover) bdd.Ref {
	return m.FromCover(cv)
}

func TestParallelBlockingEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1101))
	for iter := 0; iter < 25; iter++ {
		nVars := 5 + rng.Intn(6)
		f := randomFormula(rng, nVars, 1+rng.Intn(3*nVars), 3)
		nProj := 3 + rng.Intn(nVars-2)
		space := projSpace(rng.Perm(nVars)[:nProj]...)

		want := EnumerateBlocking(f.Clone(), space, Options{})
		m := bdd.NewOrdered(space.Vars())
		wantSet := coverSet(m, want.Cover)
		for _, workers := range []int{2, 4, 8} {
			got := EnumerateBlocking(f.Clone(), space, Options{Workers: workers})
			if got.Count.Cmp(want.Count) != 0 {
				t.Fatalf("iter %d workers %d: count %v, want %v",
					iter, workers, got.Count, want.Count)
			}
			if coverSet(m, got.Cover) != wantSet {
				t.Fatalf("iter %d workers %d: blocking cover set differs", iter, workers)
			}
			// Blocking cubes are full assignments over disjoint subcubes:
			// the sorted cube lists must be identical, not just the sets.
			a, b := got.Cover.SortedKeys(), want.Cover.SortedKeys()
			if len(a) != len(b) {
				t.Fatalf("iter %d workers %d: %d cubes, want %d", iter, workers, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("iter %d workers %d: cube %d = %s, want %s",
						iter, workers, i, a[i], b[i])
				}
			}
		}
	}
}

func TestParallelLiftingEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2202))
	for iter := 0; iter < 25; iter++ {
		nVars := 5 + rng.Intn(6)
		f := randomFormula(rng, nVars, 1+rng.Intn(3*nVars), 3)
		nProj := 3 + rng.Intn(nVars-2)
		space := projSpace(rng.Perm(nVars)[:nProj]...)

		want := EnumerateLifting(f.Clone(), space, Options{})
		m := bdd.NewOrdered(space.Vars())
		wantSet := coverSet(m, want.Cover)
		for _, workers := range []int{2, 4, 8} {
			got := EnumerateLifting(f.Clone(), space, Options{Workers: workers})
			if got.Count.Cmp(want.Count) != 0 {
				t.Fatalf("iter %d workers %d: count %v, want %v",
					iter, workers, got.Count, want.Count)
			}
			// Lifted covers are representation-dependent; the solution sets
			// must agree exactly.
			if coverSet(m, got.Cover) != wantSet {
				t.Fatalf("iter %d workers %d: lifting cover set differs", iter, workers)
			}
		}
	}
}

// TestParallelMaxCubesExact is the regression test for the shared cube
// cap: workers must claim a slot atomically before keeping a cube, so the
// merged cover holds exactly min(MaxCubes, |full cover|) cubes at every
// worker count. The old check-then-act pattern (Load before Add) let up
// to workers-1 extra cubes through when several workers raced past the
// cap simultaneously.
func TestParallelMaxCubesExact(t *testing.T) {
	// x0..x5 unconstrained: 64 projected solutions.
	mk := func() *cnf.Formula {
		f := cnf.New(6)
		f.AddClause(cnf.Clause{lit.Pos(0), lit.Neg(0)})
		return f
	}
	space := projSpace(0, 1, 2, 3, 4, 5)
	for _, workers := range []int{1, 2, 4, 8} {
		for trial := 0; trial < 10; trial++ {
			r := EnumerateBlocking(mk(), space, Options{Budget: budget.Budget{MaxCubes: 7}, Workers: workers})
			if !r.Aborted || r.Reason != budget.Cubes {
				t.Fatalf("workers=%d: aborted=%v reason=%v, want cube abort",
					workers, r.Aborted, r.Reason)
			}
			if r.Cover.Len() != 7 {
				t.Fatalf("workers=%d trial %d: cover has %d cubes, want exactly 7",
					workers, trial, r.Cover.Len())
			}
		}
		// A cap above the full cover must not abort or truncate.
		r := EnumerateBlocking(mk(), space, Options{Budget: budget.Budget{MaxCubes: 100}, Workers: workers})
		if r.Aborted || r.Cover.Len() != 64 {
			t.Fatalf("workers=%d: aborted=%v len=%d, want full 64-cube cover",
				workers, r.Aborted, r.Cover.Len())
		}
	}
}

// TestParallelIteratorAbortCancelsSiblings is the regression test for the
// first-abort-cancels-all contract: when one worker's budget trips, the
// shared context must be cancelled so no further subcubes are handed out.
// Setup: 4 subcubes, 2 workers, and a per-solver decision budget that
// trips long before any subcube exhausts — so each worker processes
// exactly one subcube (its first pull) and then returns. Only subcubes 0
// and 1 can ever be pulled, and both fix order position 1 to false.
// Before the fix the abort reason was recorded without cancelling, each
// worker went back to the feed, and cubes from subcubes 2 and 3 (position
// 1 true) leaked into the stream.
func TestParallelIteratorAbortCancelsSiblings(t *testing.T) {
	f := cnf.New(12)
	f.AddClause(cnf.Clause{lit.Pos(0), lit.Neg(0)})
	space := projSpace(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
	for trial := 0; trial < 5; trial++ {
		it := NewParallelIterator(f.Clone(), space, Options{
			Workers: 2,
			Budget:  budget.Budget{MaxDecisions: 200},
		}, false)
		n := 0
		for {
			c, ok := it.Next()
			if !ok {
				break
			}
			n++
			if c[1] != lit.False {
				t.Fatalf("trial %d: cube %v from a subcube fed out after the abort", trial, c)
			}
		}
		if it.Reason() != budget.Decisions {
			t.Fatalf("trial %d: reason=%v, want decision-budget abort", trial, it.Reason())
		}
		if _, ok := it.Next(); ok {
			t.Fatalf("trial %d: Next succeeded after the stream ended", trial)
		}
		if n == 0 {
			t.Fatalf("trial %d: no cubes before the budget tripped", trial)
		}
	}
}

// TestParallelDisjointIteratorDrains checks the streaming parallel form
// of the disjoint engine against the sequential cover as a solution set.
func TestParallelDisjointIteratorDrains(t *testing.T) {
	rng := rand.New(rand.NewSource(4404))
	for iter := 0; iter < 10; iter++ {
		nVars := 5 + rng.Intn(5)
		f := randomFormula(rng, nVars, 1+rng.Intn(3*nVars), 3)
		space := projSpace(rng.Perm(nVars)[:4]...)

		want := EnumerateDisjoint(f.Clone(), space, Options{})
		m := bdd.NewOrdered(space.Vars())
		wantSet := coverSet(m, want.Cover)

		it := NewEngineIterator(f.Clone(), space, Options{Workers: 4}, Disjoint).(*ParallelIterator)
		got := cube.NewCover(space)
		for {
			c, ok := it.Next()
			if !ok {
				break
			}
			got.Add(c)
		}
		if it.Reason() != budget.None {
			t.Fatalf("iter %d: spurious abort: %v", iter, it.Reason())
		}
		if coverSet(m, got) != wantSet {
			t.Fatalf("iter %d: parallel disjoint iterator set differs", iter)
		}
		if it.Stats().BlockingClauses != 0 {
			t.Fatalf("iter %d: %d blocking clauses", iter, it.Stats().BlockingClauses)
		}
	}
}

func TestParallelIteratorDrainsProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(3303))
	for iter := 0; iter < 10; iter++ {
		nVars := 5 + rng.Intn(5)
		f := randomFormula(rng, nVars, 1+rng.Intn(3*nVars), 3)
		space := projSpace(rng.Perm(nVars)[:4]...)

		want := EnumerateBlocking(f.Clone(), space, Options{})
		m := bdd.NewOrdered(space.Vars())
		wantSet := coverSet(m, want.Cover)

		it := NewParallelIterator(f.Clone(), space, Options{Workers: 4}, false)
		got := cube.NewCover(space)
		for {
			c, ok := it.Next()
			if !ok {
				break
			}
			got.Add(c)
		}
		if it.Reason() != budget.None {
			t.Fatalf("iter %d: spurious abort: %v", iter, it.Reason())
		}
		if coverSet(m, got) != wantSet {
			t.Fatalf("iter %d: parallel iterator set differs", iter)
		}
		if it.Stats().Cubes != uint64(got.Len()) {
			t.Fatalf("iter %d: stats cubes %d, cover %d", iter, it.Stats().Cubes, got.Len())
		}
	}
}

func TestParallelIteratorStop(t *testing.T) {
	// Unconstrained 10-var projection (1024 cubes): take 3, stop, and the
	// workers must wind down without leaking or deadlocking.
	f := cnf.New(10)
	f.AddClause(cnf.Clause{lit.Pos(0), lit.Neg(0)})
	space := projSpace(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	it := NewParallelIterator(f, space, Options{Workers: 4}, false)
	for i := 0; i < 3; i++ {
		if _, ok := it.Next(); !ok {
			t.Fatalf("stream ended after %d cubes", i)
		}
	}
	it.Stop()
	if _, ok := it.Next(); ok {
		t.Fatal("Next succeeded after Stop drained the stream")
	}
}

// TestParallelCoverInSubcubeOrder: a parallel run's cover lists its
// cubes in split order — the per-subcube covers, each enumerated
// sequentially on its restricted formula, concatenated in subcube
// order — whatever order the jobs' cubes arrived in. So the cover is
// deterministic for a fixed worker count.
func TestParallelCoverInSubcubeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4404))
	engines := []struct {
		name string
		enum func(*cnf.Formula, *cube.Space, Options) *Result
	}{
		{"blocking", EnumerateBlocking},
		{"lifting", EnumerateLifting},
		{"disjoint", EnumerateDisjoint},
	}
	for iter := 0; iter < 10; iter++ {
		f := randomFormula(rng, 10, 18, 3)
		space := projSpace(0, 1, 2, 3, 4, 5, 6, 7)
		for _, eng := range engines {
			for _, workers := range []int{2, 4} {
				opts := Options{Simplify: simplify.Off}
				want := cube.NewCover(space)
				for _, sub := range partition.Split(space, splitDepth(space, workers)) {
					for _, c := range eng.enum(restrictFormula(f, space, sub), space, opts).Cover.Cubes() {
						want.Add(c)
					}
				}
				opts.Workers = workers
				got := eng.enum(f.Clone(), space, opts).Cover
				if got.String() != want.String() {
					t.Fatalf("iter %d %s workers %d: cover\n%v\nwant split order\n%v",
						iter, eng.name, workers, got, want)
				}
			}
		}
	}
}
