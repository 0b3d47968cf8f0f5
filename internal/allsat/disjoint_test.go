package allsat

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	rt "allsatpre/internal/runtime"
	"allsatpre/internal/stats"
)

// TestDisjointAgainstBruteForce checks the blocking-clause-free engine on
// random instances: the cover must equal the brute-force projection, the
// cubes must be pairwise disjoint, and — the engine's defining property —
// no blocking clauses may ever be added.
func TestDisjointAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		nVars := 4 + rng.Intn(7)
		f := randomFormula(rng, nVars, 1+rng.Intn(4*nVars), 3)
		vars := rng.Perm(nVars)[:1+rng.Intn(nVars)]
		space := projSpace(vars...)
		want := wantProjections(f, space)

		r := EnumerateDisjoint(f.Clone(), space, Options{})
		if r.Aborted {
			t.Fatalf("trial %d: aborted without a budget (%v)", trial, r.Reason)
		}
		sameSet(t, "disjoint", want, gotProjections(r))
		if r.Stats.BlockingClauses != 0 {
			t.Fatalf("trial %d: %d blocking clauses added by the blocking-free engine",
				trial, r.Stats.BlockingClauses)
		}
		cubes := r.Cover.Cubes()
		for i := range cubes {
			for j := i + 1; j < len(cubes); j++ {
				if !cubes[i].Disjoint(cubes[j]) {
					t.Fatalf("trial %d: cubes %v and %v overlap", trial, cubes[i], cubes[j])
				}
			}
		}
	}
}

// TestDisjointParallelWorkerSweep checks that the guiding-path-partitioned
// disjoint enumeration yields the same solution set as the sequential run
// for every worker count, keeps the merged cubes pairwise disjoint, and
// still adds zero blocking clauses.
func TestDisjointParallelWorkerSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := randomFormula(rng, 12, 30, 3)
	space := projSpace(0, 1, 2, 3, 4, 5, 6, 7)
	want := wantProjections(f, space)
	for _, workers := range []int{1, 2, 4, 8} {
		r := EnumerateDisjoint(f.Clone(), space, Options{Workers: workers})
		if r.Aborted {
			t.Fatalf("workers=%d: aborted without a budget (%v)", workers, r.Reason)
		}
		sameSet(t, "disjoint-parallel", want, gotProjections(r))
		if r.Stats.BlockingClauses != 0 {
			t.Fatalf("workers=%d: %d blocking clauses", workers, r.Stats.BlockingClauses)
		}
		cubes := r.Cover.Cubes()
		for i := range cubes {
			for j := i + 1; j < len(cubes); j++ {
				if !cubes[i].Disjoint(cubes[j]) {
					t.Fatalf("workers=%d: cubes %v and %v overlap", workers, cubes[i], cubes[j])
				}
			}
		}
	}
}

// TestDisjointMaxCubes: the cube cap aborts the disjoint enumeration with
// the cap respected exactly, like the other engines.
func TestDisjointMaxCubes(t *testing.T) {
	// (x0 ∨ x1): two disjoint cubes, 1XXXX and 01XXX. The tautology is
	// one cube, XXXXX, which a cap of 1 keeps whole.
	f := cnf.New(5)
	f.Add(lit.Pos(0), lit.Pos(1))
	r := EnumerateDisjoint(f.Clone(), projSpace(0, 1, 2, 3, 4), Options{Budget: budget.Budget{MaxCubes: 1}})
	if !r.Aborted || r.Reason != budget.Cubes {
		t.Fatalf("aborted=%v reason=%v, want cube-cap abort", r.Aborted, r.Reason)
	}
	if r.Cover.Len() != 1 {
		t.Fatalf("cover has %d cubes, want exactly 1", r.Cover.Len())
	}
}

// TestDisjointBudgetAbort: a tripped solver budget surfaces as an aborted
// result with the recorded reason rather than a silent partial cover.
func TestDisjointBudgetAbort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := randomFormula(rng, 14, 25, 3)
	space := projSpace(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	r := EnumerateDisjoint(f.Clone(), space, Options{
		Budget: budget.Budget{MaxDecisions: 5},
	})
	if !r.Aborted {
		t.Fatal("5-decision budget never tripped")
	}
	if r.Reason != budget.Decisions {
		t.Fatalf("reason %v, want decisions", r.Reason)
	}
}

// TestDisjointStatsPopulated: the solver counters and the learnt-clause
// high-water mark flow through the disjoint iterator's Stats.
func TestDisjointStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := randomFormula(rng, 10, 40, 3)
	space := projSpace(0, 1, 2)
	r := EnumerateDisjoint(f.Clone(), space, Options{})
	if r.Count == nil || r.Count.Sign() == 0 {
		t.Skip("instance unsat; pick another seed")
	}
	if r.Stats.Decisions == 0 || r.Stats.Propagations == 0 {
		t.Fatalf("solver counters missing: %+v", r.Stats)
	}
	if r.Stats.Cubes == 0 || r.Stats.Solutions == 0 {
		t.Fatalf("enumeration counters missing: %+v", r.Stats)
	}
}

// TestDisjointCountMatchesBDD: the disjoint and blocking engines'
// summed Count equals a BDD count of the same cover for every worker
// count, on complete runs and on runs cut short by the cube cap or an
// expired deadline — and, for the disjoint engine, on a 70-variable
// space whose cubes have more than 62 free positions (the blocking
// engine would enumerate its 2^70 minterms one by one).
func TestDisjointCountMatchesBDD(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	narrow := randomFormula(rng, 14, 25, 3)
	wide := cnf.New(70)
	wide.AddClause(cnf.Clause{lit.Pos(0), lit.Pos(1)})
	wide.AddClause(cnf.Clause{lit.Neg(2), lit.Pos(3), lit.Neg(4)})
	wideVars := make([]int, 70)
	for i := range wideVars {
		wideVars[i] = i
	}
	instances := []struct {
		name  string
		f     *cnf.Formula
		space *cube.Space
	}{
		{"narrow", narrow, projSpace(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)},
		{"wide", wide, projSpace(wideVars...)},
	}
	budgets := []struct {
		name    string
		opts    Options
		aborted bool
	}{
		{"complete", Options{}, false},
		{"max-cubes", Options{Budget: budget.Budget{MaxCubes: 3}}, true},
		{"expired", Options{Budget: budget.Budget{Deadline: time.Now().Add(-time.Second)}}, true},
	}
	engines := []struct {
		name string
		enum func(*cnf.Formula, *cube.Space, Options) *Result
	}{
		{"disjoint", EnumerateDisjoint},
		{"blocking", EnumerateBlocking},
	}
	for _, eng := range engines {
		for _, in := range instances {
			for _, b := range budgets {
				if eng.name == "blocking" && in.name == "wide" && b.name == "complete" {
					continue
				}
				for _, workers := range []int{1, 2, 4} {
					opts := b.opts
					opts.Workers = workers
					r := eng.enum(in.f.Clone(), in.space, opts)
					tag := fmt.Sprintf("%s/%s/%s/workers=%d", eng.name, in.name, b.name, workers)
					if r.Aborted != b.aborted {
						t.Fatalf("%s: aborted=%v (%v), want %v", tag, r.Aborted, r.Reason, b.aborted)
					}
					if want := countCoverMinterms(r.Cover); r.Count.Cmp(want) != 0 {
						t.Fatalf("%s: Count %v, BDD count of the cover %v", tag, r.Count, want)
					}
					if in.name == "wide" && b.name == "complete" && r.Count.IsUint64() {
						t.Fatalf("%s: Count %v fits 64 bits; the instance no longer exercises wide counts", tag, r.Count)
					}
				}
			}
		}
	}
}

// TestDisjointBuildsNoBDD: with a runtime attached, the disjoint and
// blocking engines count without acquiring a BDD manager from the pool,
// sequentially and on the scheduler, and report no BDD nodes. The
// lifting engine on the same runtime is the control: its cubes overlap,
// so it does borrow a counting manager.
func TestDisjointBuildsNoBDD(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := randomFormula(rng, 12, 30, 3)
	space := projSpace(0, 1, 2, 3, 4, 5, 6, 7)
	reg := stats.NewRegistry("guard")
	run := &rt.Runtime{Pool: rt.NewPool(rt.PoolOptions{Stats: reg}), Sched: rt.NewScheduler(2, reg)}
	defer run.Sched.Close()
	managers := func() uint64 {
		return reg.Counter("runtime.manager-hits").Load() + reg.Counter("runtime.manager-misses").Load()
	}
	for _, enum := range []func(*cnf.Formula, *cube.Space, Options) *Result{EnumerateDisjoint, EnumerateBlocking} {
		for _, workers := range []int{1, 2, 4} {
			r := enum(f.Clone(), space, Options{Workers: workers, Runtime: run})
			if r.Count.Sign() == 0 {
				t.Fatal("instance unsat; pick another seed")
			}
			if n := managers(); n != 0 {
				t.Fatalf("workers=%d: run acquired %d BDD managers", workers, n)
			}
			if r.Stats.BDDNodes != 0 {
				t.Fatalf("workers=%d: BDDNodes = %d, want 0", workers, r.Stats.BDDNodes)
			}
		}
	}
	if reg.Counter("runtime.solver-misses").Load()+reg.Counter("runtime.solver-hits").Load() == 0 {
		t.Fatal("the runtime's pool was never used")
	}
	EnumerateLifting(f.Clone(), space, Options{Runtime: run})
	if managers() == 0 {
		t.Fatal("lifting run acquired no counting manager; the guard counts nothing")
	}
}
