package preimage

import (
	"fmt"
	"slices"
	"testing"

	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cube"
	"allsatpre/internal/gen"
	rt "allsatpre/internal/runtime"
	"allsatpre/internal/trans"
)

// suiteCircuit is a determinism-suite circuit with the target its
// sweeps compute preimages of.
type suiteCircuit struct {
	gen.NamedCircuit
	Target *cube.Cover
}

// determinismSuite is the seed-circuit subset the worker-count
// determinism tests sweep (the larger Suite members are exercised by the
// benchmarks; here runtime matters because every circuit runs at four
// worker counts). Every target has a non-empty, proper preimage: most
// circuits take wideTarget's pattern, but latch 1 of slike1 is never 1,
// so that pattern's preimage is empty there and slike1 fixes latch 0
// instead.
func determinismSuite() []suiteCircuit {
	wide := func(name string, c *circuit.Circuit) suiteCircuit {
		return suiteCircuit{gen.NamedCircuit{Name: name, Circuit: c}, wideTarget(len(c.Latches))}
	}
	slike1 := wide("slike1", gen.SLike(gen.SLikeParams{Seed: 1, Inputs: 6, Latches: 6, Gates: 60}))
	slike1.Target = trans.TargetFromPatterns(6, "1XXX0X")
	return []suiteCircuit{
		wide("counter8", gen.Counter(8, true, false)),
		wide("shift8", gen.ShiftRegister(8)),
		wide("lfsr8", gen.LFSR(8, 0, 3, 4, 5)),
		wide("gray6", gen.GrayCounter(6)),
		wide("traffic", gen.TrafficLight()),
		slike1,
		wide("slike2", gen.SLike(gen.SLikeParams{Seed: 2, Inputs: 8, Latches: 8, Gates: 120})),
	}
}

// suiteMembers returns the named determinismSuite circuits, in suite
// order.
func suiteMembers(names ...string) []suiteCircuit {
	var out []suiteCircuit
	for _, sc := range determinismSuite() {
		if slices.Contains(names, sc.Name) {
			out = append(out, sc)
		}
	}
	return out
}

// wideTarget builds a mostly-free target pattern (two fixed bits) so the
// preimage is non-trivial — fully fixed patterns propagate to empty or
// tiny preimages on the slike instances, which would let a sweep pass
// vacuously.
func wideTarget(nL int) *cube.Cover {
	pat := make([]byte, nL)
	for i := range pat {
		pat[i] = 'X'
	}
	pat[1] = '1'
	if nL > 4 {
		pat[4] = '0'
	}
	return trans.TargetFromPatterns(nL, string(pat))
}

// reference computes the preimage a sweep compares against. It fails
// the test when that preimage is empty or was cut short: any cover
// agrees with an empty reference, so the sweep would check nothing.
func reference(t *testing.T, name string, c *circuit.Circuit, target *cube.Cover, opts Options) *Result {
	t.Helper()
	ref, err := Compute(c, target, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireNonEmpty(t, name, ref)
	return ref
}

// requireNonEmpty fails the test on an empty or aborted reference.
func requireNonEmpty(t *testing.T, name string, ref *Result) {
	t.Helper()
	if ref.Aborted {
		t.Fatalf("%s: reference aborted (%v)", name, ref.AbortReason)
	}
	if ref.Count.Sign() == 0 {
		t.Fatalf("%s: the reference preimage is empty; pick a target with predecessors", name)
	}
}

// TestDeterministicCoverAcrossWorkers is the parallel-enumeration
// determinism contract: for every seed circuit the merged success-driven
// preimage cover must be bit-identical — same sorted cube list, same
// model count, same canonical BDD — across workers ∈ {1, 2, 4, 8} and
// equal to the sequential enumerator's cover.
func TestDeterministicCoverAcrossWorkers(t *testing.T) {
	for _, nc := range determinismSuite() {
		target := nc.Target
		seq := reference(t, nc.Name, nc.Circuit, target, Options{})
		seqKeys := seq.States.SortedKeys()
		m := bdd.NewOrdered(seq.StateSpace.Vars())
		seqSet := m.FromCover(seq.States)

		for _, workers := range []int{1, 2, 4, 8} {
			par, err := Compute(nc.Circuit, target, Options{Parallel: workers})
			if err != nil {
				t.Fatal(err)
			}
			if par.Aborted {
				t.Fatalf("%s/p%d: spurious abort (%v)", nc.Name, workers, par.AbortReason)
			}
			if par.Count.Cmp(seq.Count) != 0 {
				t.Fatalf("%s/p%d: count %v, want %v", nc.Name, workers, par.Count, seq.Count)
			}
			if m.FromCover(par.States) != seqSet {
				t.Fatalf("%s/p%d: canonical state set differs", nc.Name, workers)
			}
			keys := par.States.SortedKeys()
			if len(keys) != len(seqKeys) {
				t.Fatalf("%s/p%d: %d cubes, want %d", nc.Name, workers, len(keys), len(seqKeys))
			}
			for i := range keys {
				if keys[i] != seqKeys[i] {
					t.Fatalf("%s/p%d: cube %d = %s, want %s",
						nc.Name, workers, i, keys[i], seqKeys[i])
				}
			}
		}
	}
}

// TestAbortSoundnessAcrossWorkers injects a mid-run decision budget at
// every worker count: the run must report the abort with its reason, and
// the partial cover must stay a subset of the true preimage. (Exact
// cube-level determinism is not promised under abort — which subcubes
// completed is scheduling-dependent — soundness and abort reporting
// are.)
func TestAbortSoundnessAcrossWorkers(t *testing.T) {
	c := gen.SLike(gen.SLikeParams{Seed: 2, Inputs: 8, Latches: 8, Gates: 120})
	// ~2k decisions sequentially, so a 10-decision budget trips mid-run.
	target := trans.TargetFromPatterns(8, "X1XXXXXX")

	full, err := Compute(c, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := bdd.NewOrdered(full.StateSpace.Vars())
	fullSet := m.FromCover(full.States)

	sawAbort := false
	for _, workers := range []int{1, 2, 4, 8} {
		par, err := Compute(c, target, Options{
			Parallel: workers,
			Budget:   budget.Budget{MaxDecisions: 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		if par.Aborted {
			sawAbort = true
			if par.AbortReason != budget.Decisions {
				t.Fatalf("p%d: abort reason %v, want decisions", workers, par.AbortReason)
			}
		}
		if extra := m.Diff(m.FromCover(par.States), fullSet); extra != bdd.False {
			t.Fatalf("p%d: aborted cover is not a subset of the full preimage", workers)
		}
	}
	if !sawAbort {
		t.Fatal("a 10-decision budget never aborted the 8-latch instance")
	}
}

// TestDeterministicCoverBlockingEngines extends the sweep to the
// blocking/lifting engines: their covers are representation-dependent in
// parallel (per-subcube solvers lift differently), so the contract is
// set-level — identical canonical BDD and count at every worker count.
func TestDeterministicCoverBlockingEngines(t *testing.T) {
	for _, nc := range suiteMembers("gray6", "slike1") {
		target := nc.Target
		for _, eng := range []Engine{EngineBlocking, EngineLifting} {
			seq := reference(t, nc.Name, nc.Circuit, target, Options{Engine: eng})
			m := bdd.NewOrdered(seq.StateSpace.Vars())
			seqSet := m.FromCover(seq.States)
			for _, workers := range []int{2, 4, 8} {
				par, err := Compute(nc.Circuit, target, Options{Engine: eng, Parallel: workers})
				if err != nil {
					t.Fatal(err)
				}
				if par.Count.Cmp(seq.Count) != 0 || m.FromCover(par.States) != seqSet {
					t.Fatalf("%s/%v/p%d: parallel state set differs", nc.Name, eng, workers)
				}
			}
		}
	}
}

// TestDeterministicCoverDisjointEngine checks the blocking-clause-free
// engine end to end: on each suite circuit its preimage must denote the
// same state set (canonical BDD and count) as the success-driven
// reference — and as the blocking baseline on one circuit — at every
// worker count, while adding zero blocking clauses.
func TestDeterministicCoverDisjointEngine(t *testing.T) {
	for _, nc := range suiteMembers("gray6", "counter8", "slike1") {
		target := nc.Target
		ref := reference(t, nc.Name, nc.Circuit, target, Options{})
		m := bdd.NewOrdered(ref.StateSpace.Vars())
		refSet := m.FromCover(ref.States)

		for _, workers := range []int{1, 2, 4, 8} {
			dis, err := Compute(nc.Circuit, target, Options{Engine: EngineDisjoint, Parallel: workers})
			if err != nil {
				t.Fatal(err)
			}
			if dis.Aborted {
				t.Fatalf("%s/p%d: spurious abort (%v)", nc.Name, workers, dis.AbortReason)
			}
			if dis.Count.Cmp(ref.Count) != 0 {
				t.Fatalf("%s/p%d: count %v, want %v", nc.Name, workers, dis.Count, ref.Count)
			}
			if m.FromCover(dis.States) != refSet {
				t.Fatalf("%s/p%d: disjoint state set differs from success-driven", nc.Name, workers)
			}
			if dis.Stats.BlockingClauses != 0 {
				t.Fatalf("%s/p%d: %d blocking clauses added by the blocking-free engine",
					nc.Name, workers, dis.Stats.BlockingClauses)
			}
		}
	}

	// Cross-check against the blocking baseline on one circuit.
	c := gen.GrayCounter(6)
	target := wideTarget(6)
	blk, err := Compute(c, target, Options{Engine: EngineBlocking})
	if err != nil {
		t.Fatal(err)
	}
	dis, err := Compute(c, target, Options{Engine: EngineDisjoint})
	if err != nil {
		t.Fatal(err)
	}
	m := bdd.NewOrdered(blk.StateSpace.Vars())
	if dis.Count.Cmp(blk.Count) != 0 || m.FromCover(dis.States) != m.FromCover(blk.States) {
		t.Fatal("disjoint state set differs from blocking baseline")
	}
}

// TestDeterministicCoverBDDEngine covers the fourth engine: the sliced
// parallel BDD path must agree with the monolithic relational product.
func TestDeterministicCoverBDDEngine(t *testing.T) {
	c := gen.Counter(6, true, false)
	target := trans.TargetFromPatterns(6, "01X01X")
	seq, err := Compute(c, target, Options{Engine: EngineBDD})
	if err != nil {
		t.Fatal(err)
	}
	m := bdd.NewOrdered(seq.StateSpace.Vars())
	seqSet := m.FromCover(seq.States)
	for _, workers := range []int{2, 4, 8} {
		par, err := Compute(c, target, Options{Engine: EngineBDD, Parallel: workers})
		if err != nil {
			t.Fatal(err)
		}
		if par.Count.Cmp(seq.Count) != 0 || m.FromCover(par.States) != seqSet {
			t.Fatalf("bdd/p%d: parallel state set differs", workers)
		}
	}
}

// TestDeterministicStateCoverCubeEngines pins the state-only covers of
// the blocking, lifting and disjoint engines over the determinism suite
// at Parallel 1/2/4: every engine's Count equals the BDD engine's and
// its state set equals the success-driven engine's; the blocking and
// disjoint covers, which skip Reduce, are pairwise disjoint; and a run
// on warm pooled solvers returns the fresh run's cover cube for cube.
func TestDeterministicStateCoverCubeEngines(t *testing.T) {
	sched := rt.NewScheduler(4, nil)
	defer sched.Close()
	shared := &rt.Runtime{Pool: rt.NewPool(rt.PoolOptions{}), Sched: sched}
	for _, nc := range determinismSuite() {
		target := nc.Target
		sd := reference(t, nc.Name, nc.Circuit, target, Options{})
		bd := reference(t, nc.Name, nc.Circuit, target, Options{Engine: EngineBDD})
		m := bdd.NewOrdered(sd.StateSpace.Vars())
		sdSet := m.FromCover(sd.States)
		for _, eng := range []Engine{EngineBlocking, EngineLifting, EngineDisjoint} {
			for _, workers := range []int{1, 2, 4} {
				tag := fmt.Sprintf("%s/%v/p%d", nc.Name, eng, workers)
				fresh, err := Compute(nc.Circuit, target, Options{Engine: eng, Parallel: workers})
				if err != nil {
					t.Fatal(err)
				}
				if fresh.Aborted {
					t.Fatalf("%s: spurious abort (%v)", tag, fresh.AbortReason)
				}
				if fresh.Count.Cmp(bd.Count) != 0 {
					t.Fatalf("%s: count %v, BDD engine %v", tag, fresh.Count, bd.Count)
				}
				if m.FromCover(fresh.States) != sdSet {
					t.Fatalf("%s: state set differs from the success-driven engine's", tag)
				}
				if eng != EngineLifting {
					if i, j, ok := overlap(fresh.States); ok {
						t.Fatalf("%s: cubes %d (%s) and %d (%s) overlap", tag,
							i, fresh.States.Cubes()[i], j, fresh.States.Cubes()[j])
					}
				}
				for round := 0; round < 2; round++ {
					warm, err := Compute(nc.Circuit, target, Options{
						Engine: eng, Parallel: workers, Runtime: shared.WithTenant(nc.Name),
					})
					if err != nil {
						t.Fatal(err)
					}
					if warm.States.String() != fresh.States.String() || warm.Count.Cmp(fresh.Count) != 0 {
						t.Fatalf("%s: warm cover (round %d) differs from fresh\nfresh: %s\nwarm:  %s",
							tag, round, fresh.States, warm.States)
					}
				}
			}
		}
	}
}

// overlap returns the first pair of intersecting cubes of cv.
func overlap(cv *cube.Cover) (int, int, bool) {
	cubes := cv.Cubes()
	for i := range cubes {
		for j := i + 1; j < len(cubes); j++ {
			if !cubes[i].Disjoint(cubes[j]) {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}
