package preimage

import (
	"fmt"
	"math/big"
	"testing"

	"allsatpre/internal/allsat"
	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	rt "allsatpre/internal/runtime"
	"allsatpre/internal/trans"
)

// enumerateReference computes a blocking, lifting or disjoint preimage
// without the streamed state projection: allsat.Enumerate* simplifies
// the instance with the projection frozen and builds and counts the
// whole (state, input) cover, which is then projected onto the latches,
// reduced unless the circuit has no inputs (see below), and counted
// through a BDD.
func enumerateReference(t *testing.T, c *circuit.Circuit, target *cube.Cover, opts Options) *Result {
	t.Helper()
	opts.Budget = opts.Budget.Materialize()
	inst, err := trans.NewInstance(c, target)
	if err != nil {
		t.Fatal(err)
	}
	projVars, projNames := inst.OrderedProjection(opts.InputFirstOrder, opts.Interleave)
	projSpace := cube.NewNamedSpace(projVars, projNames)
	as := allsat.Options{Budget: opts.Budget, Runtime: opts.Runtime}
	if opts.Parallel > 1 {
		as.Workers = opts.Parallel
	}
	enumerate := map[Engine]func(*cnf.Formula, *cube.Space, allsat.Options) *allsat.Result{
		EngineBlocking: allsat.EnumerateBlocking,
		EngineLifting:  allsat.EnumerateLifting,
		EngineDisjoint: allsat.EnumerateDisjoint,
	}[opts.Engine]
	ar := enumerate(inst.F, projSpace, as)
	stateSpace := StateSpace(c)
	states := cube.NewCover(stateSpace)
	pairSp := pairSpace(inst)
	pairs := cube.NewCover(pairSp)
	for _, cb := range ar.Cover.Cubes() {
		sc := stateSpace.FullCube()
		for i, v := range inst.StateVars {
			sc[i] = cb[projSpace.PosOf(v)]
		}
		states.Add(sc)
		pc := pairSp.FullCube()
		for i, v := range inst.FullSpace.Vars() {
			pc[i] = cb[projSpace.PosOf(v)]
		}
		pairs.Add(pc)
	}
	if opts.Engine == EngineLifting || len(inst.InputVars) > 0 {
		// A blocking or disjoint cover over the states alone is
		// pairwise disjoint and stays in engine (or subcube) order.
		states.Reduce()
	}
	m := bdd.NewOrdered(stateSpace.Vars())
	return &Result{
		States:      states,
		Count:       m.SatCount(m.FromCover(states)),
		Pairs:       pairs,
		Aborted:     ar.Aborted,
		AbortReason: ar.Reason,
	}
}

// TestStreamedProjectionEquivalence pins the streamed state projection
// of the blocking, lifting and disjoint engines to the enumerate-then-
// project (state, input) reference above, on the determinism suite at
// Parallel 1/2/4, unbudgeted and under a cube and a decision cap.
//
// With WithInputs the run searches the reference's own projection, so
// it must match it exactly: the same States cube by cube in order, the
// same Count, Aborted and AbortReason, and the same Pairs (cube by cube
// in order, so also as a multiset). Budgeted parallel runs execute on a
// one-executor scheduler, which runs the subcube jobs in split order:
// which subcubes a cap cuts short is then fixed, so both sides stop at
// the same cube. Unbudgeted parallel runs use a private scheduler and
// real concurrency.
//
// Without WithInputs the run searches over the states alone, so its
// cubes, and where a cap cuts it, differ from the reference. A complete
// run must denote the unbudgeted reference's state set with its count;
// a cut one must name the cap that tripped and keep a subset of it.
// Either way Count is the exact size of States.
func TestStreamedProjectionEquivalence(t *testing.T) {
	serial := rt.NewScheduler(1, nil)
	defer serial.Close()
	budgets := []struct {
		name   string
		b      budget.Budget
		reason budget.Reason
	}{
		{"none", budget.Budget{}, budget.None},
		{"max-cubes", budget.Budget{MaxCubes: 7}, budget.Cubes},
		{"max-decisions", budget.Budget{MaxDecisions: 40}, budget.Decisions},
	}
	aborts := map[budget.Reason]int{}
	stateAborts := map[budget.Reason]int{}
	for _, nc := range determinismSuite() {
		target := nc.Target
		full := enumerateReference(t, nc.Circuit, target, Options{Engine: EngineDisjoint})
		requireNonEmpty(t, nc.Name, full)
		m := bdd.NewOrdered(full.States.Space().Vars())
		fullSet := m.FromCover(full.States)
		for _, eng := range []Engine{EngineBlocking, EngineLifting, EngineDisjoint} {
			for _, b := range budgets {
				// Minutes for the per-minterm baselines over (state,
				// input); see TestSimplifyEquivalenceAllEngines.
				slow := eng != EngineDisjoint && nc.Name == "slike2" && b.b.IsZero()
				for _, workers := range []int{1, 2, 4} {
					opts := Options{Engine: eng, Parallel: workers, Budget: b.b}
					if workers > 1 && !b.b.IsZero() {
						opts.Runtime = &rt.Runtime{Sched: serial}
					}
					tag := fmt.Sprintf("%s/%v/%s/p%d", nc.Name, eng, b.name, workers)

					got, err := Compute(nc.Circuit, target, opts)
					if err != nil {
						t.Fatal(err)
					}
					stateAborts[got.AbortReason]++
					checkStateOnlyResult(t, tag+"/inputs=false", got, b.reason, m, fullSet, full.Count)

					if slow {
						continue
					}
					opts.WithInputs = true
					ref := enumerateReference(t, nc.Circuit, target, opts)
					aborts[ref.AbortReason]++
					if got, err = Compute(nc.Circuit, target, opts); err != nil {
						t.Fatal(err)
					}
					checkStreamedResult(t, tag+"/inputs=true", got, ref)
				}
			}
		}
	}
	// Both caps must cut some runs short and leave others complete, on
	// both projections, or the sweep compares only one side of the
	// abort path.
	for _, r := range []budget.Reason{budget.None, budget.Cubes, budget.Decisions} {
		if aborts[r] == 0 {
			t.Errorf("no (state, input) run ended with reason %v", r)
		}
		if stateAborts[r] == 0 {
			t.Errorf("no state-only run ended with reason %v", r)
		}
	}
}

// checkStateOnlyResult checks a run without WithInputs against the full
// preimage fullSet (in m) and its count.
func checkStateOnlyResult(t *testing.T, tag string, got *Result, capReason budget.Reason, m *bdd.Manager, fullSet bdd.Ref, fullCount *big.Int) {
	t.Helper()
	if got.Pairs != nil {
		t.Fatalf("%s: Pairs set without WithInputs", tag)
	}
	set := m.FromCover(got.States)
	if n := m.SatCount(set); got.Count.Cmp(n) != 0 {
		t.Fatalf("%s: count %v, but States holds %v states", tag, got.Count, n)
	}
	if !got.Aborted {
		if set != fullSet || got.Count.Cmp(fullCount) != 0 {
			t.Fatalf("%s: complete run has %v states, reference %v", tag, got.Count, fullCount)
		}
		return
	}
	if got.AbortReason != capReason {
		t.Fatalf("%s: aborted by %v, want %v", tag, got.AbortReason, capReason)
	}
	if m.Diff(set, fullSet) != bdd.False {
		t.Fatalf("%s: truncated cover holds states outside the preimage", tag)
	}
}

func checkStreamedResult(t *testing.T, tag string, got, ref *Result) {
	t.Helper()
	if got.Aborted != ref.Aborted || got.AbortReason != ref.AbortReason {
		t.Fatalf("%s: aborted=%v (%v), reference aborted=%v (%v)",
			tag, got.Aborted, got.AbortReason, ref.Aborted, ref.AbortReason)
	}
	if got.Count.Cmp(ref.Count) != 0 {
		t.Fatalf("%s: count %v, reference %v", tag, got.Count, ref.Count)
	}
	if got.States.String() != ref.States.String() {
		t.Fatalf("%s: states\n%v\nreference\n%v", tag, got.States, ref.States)
	}
	if got.Pairs.String() != ref.Pairs.String() {
		t.Fatalf("%s: %d pairs differ from the reference's %d", tag, got.Pairs.Len(), ref.Pairs.Len())
	}
}
