package pool

import (
	"math/rand"
	"testing"
	"time"

	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/core"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	"allsatpre/internal/stats"
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

// TestPoolMatchesSequential is the determinism core: for random formulas
// the pooled cover must be bit-identical — same cubes, same order, same
// model count — to the sequential enumerator at every worker count.
func TestPoolMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4004))
	for iter := 0; iter < 40; iter++ {
		nVars := 5 + rng.Intn(7)
		f := randomFormula(rng, nVars, 1+rng.Intn(4*nVars), 3)
		nProj := 3 + rng.Intn(nVars-2)
		vars := rng.Perm(nVars)[:nProj]
		space := projSpace(vars...)

		want := core.EnumerateToResult(f.Clone(), space, core.DefaultOptions())
		for _, workers := range []int{1, 2, 4, 8} {
			got := EnumerateToResult(f.Clone(), space, Options{
				Workers: workers,
				Core:    core.DefaultOptions(),
			})
			if got.Count.Cmp(want.Count) != 0 {
				t.Fatalf("iter %d workers %d: count %v, want %v",
					iter, workers, got.Count, want.Count)
			}
			if !coversIdentical(got.Cover, want.Cover) {
				t.Fatalf("iter %d workers %d: cover differs\n got: %v\nwant: %v",
					iter, workers, got.Cover, want.Cover)
			}
		}
	}
}

func coversIdentical(a, b *cube.Cover) bool {
	if a.Len() != b.Len() {
		return false
	}
	ac, bc := a.Cubes(), b.Cubes()
	for i := range ac {
		if ac[i].String() != bc[i].String() {
			return false
		}
	}
	return true
}

// TestPoolDynamicSplit forces re-splitting with a tiny decision cap and
// checks the result is still exact.
func TestPoolDynamicSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(5005))
	splits := uint64(0)
	for iter := 0; iter < 20; iter++ {
		nVars := 8 + rng.Intn(4)
		f := randomFormula(rng, nVars, nVars, 3)
		vars := rng.Perm(nVars)[:6]
		space := projSpace(vars...)

		want := core.EnumerateToResult(f.Clone(), space, core.DefaultOptions())
		// Start coarse (depth 1) so splitting has to happen.
		got := enumerate(f.Clone(), space, Options{Workers: 4, Core: core.DefaultOptions()}, 1, 2)
		splits += got.Pool.Splits
		cover := got.Manager.ISOP(got.Set, space)
		if !coversIdentical(cover, want.Cover) {
			t.Fatalf("iter %d: split cover differs\n got: %v\nwant: %v",
				iter, cover, want.Cover)
		}
	}
	if splits == 0 {
		t.Fatal("threshold 2 never forced a dynamic split")
	}
}

func TestPoolGlobalUnsat(t *testing.T) {
	f := cnf.New(4)
	f.AddClause(cnf.Clause{lit.Pos(0)})
	f.AddClause(cnf.Clause{lit.Neg(0)})
	f.AddClause(cnf.Clause{lit.Pos(1), lit.Pos(2), lit.Pos(3)})
	space := projSpace(0, 1, 2, 3)
	reg := stats.NewRegistry("test")
	r := Enumerate(f, space, Options{Workers: 4, Core: core.DefaultOptions(), Stats: reg})
	if r.Set != bdd.False || r.Aborted {
		t.Fatalf("unsat: set %v aborted %v", r.Set, r.Aborted)
	}
	// The empty failed pattern must have pruned (or the UNSAT discovery
	// short-circuited) most of the 16 statically split subcubes.
	if r.Pool.Pruned == 0 && r.Pool.Subcubes >= 16 {
		t.Fatalf("no pruning on global UNSAT: %+v", r.Pool)
	}
}

// TestPoolUnsatSubcubePruning checks that a failed-assumption pattern
// recorded by one subcube prunes its subsumed siblings.
func TestPoolUnsatSubcubePruning(t *testing.T) {
	// x0 is forced false: every subcube with x0=1 is UNSAT with failed
	// set {x0}, so the pattern {x0=1} prunes half the static split.
	f := cnf.New(6)
	f.AddClause(cnf.Clause{lit.Neg(0)})
	for v := 1; v < 6; v++ {
		f.AddClause(cnf.Clause{lit.Pos(lit.Var(v)), lit.Neg(0)})
	}
	f.AddClause(cnf.Clause{lit.Pos(1), lit.Pos(2), lit.Pos(3), lit.Pos(4), lit.Pos(5)})
	space := projSpace(0, 1, 2, 3, 4, 5)
	want := core.EnumerateToResult(f.Clone(), space, core.DefaultOptions())
	r := enumerate(f.Clone(), space, Options{Workers: 2, Core: core.DefaultOptions()}, 4, DefaultSplitThreshold)
	cover := r.Manager.ISOP(r.Set, space)
	if !coversIdentical(cover, want.Cover) {
		t.Fatalf("cover differs\n got: %v\nwant: %v", cover, want.Cover)
	}
	if r.Pool.UnsatSubcubes == 0 {
		t.Fatalf("no unsat subcubes recorded: %+v", r.Pool)
	}
}

// TestPoolBudgetAbortPartial checks the abort protocol: a tripped global
// decision budget yields Aborted with the right reason, and the partial
// merged set is a sound under-approximation of the full solution set.
func TestPoolBudgetAbortPartial(t *testing.T) {
	rng := rand.New(rand.NewSource(6006))
	sawAbort := false
	for iter := 0; iter < 30; iter++ {
		nVars := 8 + rng.Intn(4)
		f := randomFormula(rng, nVars, nVars, 3)
		vars := rng.Perm(nVars)[:6]
		space := projSpace(vars...)

		full := core.New(nil, f.Clone(), space, core.DefaultOptions())
		fr := full.Enumerate()

		r := Enumerate(f.Clone(), space, Options{
			Workers: 4,
			Budget:  budget.Budget{MaxDecisions: 5},
			Core:    core.DefaultOptions(),
		})
		if r.Aborted {
			sawAbort = true
			if r.Reason != budget.Decisions {
				t.Fatalf("iter %d: abort reason %v, want decisions", iter, r.Reason)
			}
		}
		// Partial ⊆ full, aborted or not.
		fullSet := r.Manager.Import(full.Manager().Export(fr.Set))
		if extra := r.Manager.Diff(r.Set, fullSet); extra != bdd.False {
			t.Fatalf("iter %d: merged set is not a subset of the full set", iter)
		}
	}
	if !sawAbort {
		t.Fatal("5-decision budget never aborted any instance")
	}
}

// TestPoolDeadlineAbort: a wall-clock deadline must trip even when every
// subcube resolves through assumptions and BCP alone — such calls make
// no decisions, so without the per-call entry poll in EnumerateUnder a
// pooled run over easy subcubes would never check the clock.
func TestPoolDeadlineAbort(t *testing.T) {
	f := cnf.New(6)
	f.AddClause(cnf.Clause{lit.Pos(lit.Var(0)), lit.Pos(lit.Var(1))})
	space := projSpace(0, 1, 2, 3, 4, 5)
	r := Enumerate(f, space, Options{
		Workers: 4,
		Budget:  budget.Budget{Deadline: time.Now().Add(-time.Hour)},
		Core:    core.DefaultOptions(),
	})
	if !r.Aborted || r.Reason != budget.Deadline {
		t.Fatalf("expired deadline: aborted=%v reason=%v, want deadline abort",
			r.Aborted, r.Reason)
	}
	if r.Set != bdd.False {
		t.Fatalf("deadline-aborted run published solutions: %v", r.Set)
	}
}

// TestPoolStatsRegistry checks the pool.* keys land in the registry.
func TestPoolStatsRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(7007))
	f := randomFormula(rng, 10, 20, 3)
	space := projSpace(0, 1, 2, 3, 4, 5)
	reg := stats.NewRegistry("test")
	r := Enumerate(f, space, Options{Workers: 4, Core: core.DefaultOptions(), Stats: reg})
	snap := reg.Snapshot()
	metrics := map[string]string{}
	for _, kv := range snap.Metrics {
		metrics[kv.Key] = kv.Value
	}
	if metrics["pool.workers"] != "4" {
		t.Fatalf("pool.workers gauge = %q, want 4", metrics["pool.workers"])
	}
	if r.Pool.Subcubes == 0 {
		t.Fatalf("no subcubes recorded: %+v", r.Pool)
	}
	if got := reg.Counter("pool.subcubes").Load(); got != r.Pool.Subcubes {
		t.Fatalf("pool.subcubes counter = %d, pool stats %+v", got, r.Pool)
	}
}

// TestPoolSequentialShortcut: one worker must take the plain sequential
// path and still report through the pool result shape.
func TestPoolSequentialShortcut(t *testing.T) {
	rng := rand.New(rand.NewSource(8008))
	f := randomFormula(rng, 8, 16, 3)
	space := projSpace(0, 1, 2, 3)
	want := core.EnumerateToResult(f.Clone(), space, core.DefaultOptions())
	got := EnumerateToResult(f.Clone(), space, Options{Workers: 1, Core: core.DefaultOptions()})
	if got.Count.Cmp(want.Count) != 0 || !coversIdentical(got.Cover, want.Cover) {
		t.Fatalf("sequential shortcut diverged: %v vs %v", got.Cover, want.Cover)
	}
}
