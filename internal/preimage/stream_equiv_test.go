package preimage

import (
	"fmt"
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
// reduced, and counted through a BDD.
func enumerateReference(t *testing.T, c *circuit.Circuit, target *cube.Cover, opts Options) *Result {
	t.Helper()
	opts.Budget = opts.Budget.Materialize()
	inst, err := trans.NewInstance(c, target)
	if err != nil {
		t.Fatal(err)
	}
	projVars, projNames := projectionOrder(inst, opts)
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
	states.Reduce()
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
// project reference above, on the determinism suite at Parallel 1/2/4,
// with WithInputs on and off, unbudgeted and under a cube and a
// decision cap: the same States cube by cube in order, the same Count,
// Aborted and AbortReason, and the same Pairs (cube by cube in order,
// so also as a multiset). Budgeted parallel runs execute on a
// one-executor scheduler, which runs the subcube jobs in split order:
// which subcubes a cap cuts short is then fixed, so both sides stop at
// the same cube. Unbudgeted parallel runs use a private scheduler and
// real concurrency.
func TestStreamedProjectionEquivalence(t *testing.T) {
	serial := rt.NewScheduler(1, nil)
	defer serial.Close()
	budgets := []struct {
		name string
		b    budget.Budget
	}{
		{"none", budget.Budget{}},
		{"max-cubes", budget.Budget{MaxCubes: 7}},
		{"max-decisions", budget.Budget{MaxDecisions: 40}},
	}
	aborts := map[budget.Reason]int{}
	for _, nc := range determinismSuite() {
		target := wideTarget(len(nc.Circuit.Latches))
		for _, eng := range []Engine{EngineBlocking, EngineLifting, EngineDisjoint} {
			for _, b := range budgets {
				if eng != EngineDisjoint && nc.Name == "slike2" && b.b.IsZero() {
					// Minutes for the per-minterm baselines; see
					// TestSimplifyEquivalenceAllEngines.
					continue
				}
				for _, workers := range []int{1, 2, 4} {
					opts := Options{Engine: eng, Parallel: workers, Budget: b.b}
					if workers > 1 && !b.b.IsZero() {
						opts.Runtime = &rt.Runtime{Sched: serial}
					}
					tag := fmt.Sprintf("%s/%v/%s/p%d", nc.Name, eng, b.name, workers)
					ref := enumerateReference(t, nc.Circuit, target, opts)
					aborts[ref.AbortReason]++
					for _, withInputs := range []bool{false, true} {
						opts.WithInputs = withInputs
						got, err := Compute(nc.Circuit, target, opts)
						if err != nil {
							t.Fatal(err)
						}
						checkStreamedResult(t, fmt.Sprintf("%s/inputs=%v", tag, withInputs), got, ref, withInputs)
					}
				}
			}
		}
	}
	// Both caps must cut some runs short and leave others complete, or
	// the sweep compares only one side of the abort path.
	for _, r := range []budget.Reason{budget.None, budget.Cubes, budget.Decisions} {
		if aborts[r] == 0 {
			t.Errorf("no run ended with reason %v", r)
		}
	}
}

func checkStreamedResult(t *testing.T, tag string, got, ref *Result, withInputs bool) {
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
	if !withInputs {
		if got.Pairs != nil {
			t.Fatalf("%s: Pairs set without WithInputs", tag)
		}
		return
	}
	if got.Pairs.String() != ref.Pairs.String() {
		t.Fatalf("%s: %d pairs differ from the reference's %d", tag, got.Pairs.Len(), ref.Pairs.Len())
	}
}
