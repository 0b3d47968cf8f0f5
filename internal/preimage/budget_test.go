package preimage

import (
	"context"
	"testing"
	"time"

	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cube"
	"allsatpre/internal/gen"
	"allsatpre/internal/stats"
	"allsatpre/internal/trans"
)

// expiredBudget is a budget whose deadline has already passed: every
// engine must notice it on the first poll and abort immediately.
func expiredBudget() budget.Budget {
	return budget.Budget{Deadline: time.Now().Add(-time.Second)}
}

// assertSubset fails unless sub ⊆ full over the given space (checked
// exactly via BDDs).
func assertSubset(t *testing.T, space *cube.Space, sub, full *cube.Cover, label string) {
	t.Helper()
	man := bdd.NewOrdered(space.Vars())
	s := man.FromCover(canonicalize(space, sub))
	f := man.FromCover(canonicalize(space, full))
	if man.Diff(s, f) != bdd.False {
		t.Fatalf("%s: partial cover is not a subset of the full preimage", label)
	}
}

// entryRow is one public entry point on one engine, over a fixed
// circuit and state set.
type entryRow struct {
	name string
	run  func(Options) (*Result, error)
}

// entryRows lists Compute on each of engines, then Image and the
// unrolled KStepPreimage (two steps) on every SAT engine.
func entryRows(c *circuit.Circuit, set *cube.Cover, engines []Engine) []entryRow {
	var rows []entryRow
	for _, eng := range engines {
		rows = append(rows, entryRow{"Compute/" + eng.String(), func(o Options) (*Result, error) {
			o.Engine = eng
			return Compute(c, set, o)
		}})
	}
	for _, eng := range []Engine{EngineSuccessDriven, EngineBlocking, EngineLifting, EngineDisjoint} {
		rows = append(rows,
			entryRow{"Image/" + eng.String(), func(o Options) (*Result, error) {
				o.Engine = eng
				return Image(c, set, o)
			}},
			entryRow{"KStepPreimage/" + eng.String(), func(o Options) (*Result, error) {
				o.Engine = eng
				return KStepPreimage(c, set, 2, o)
			}})
	}
	return rows
}

// checkBudgetAbort runs row unbudgeted and under bud: the budgeted run
// must be a structured abort with reason want, its cover a sound subset
// of the complete one — never an error, never a silently
// complete-looking answer.
func checkBudgetAbort(t *testing.T, row entryRow, bud budget.Budget, want budget.Reason) {
	t.Helper()
	full, err := row.run(Options{})
	if err != nil {
		t.Fatalf("%s full: %v", row.name, err)
	}
	if full.Aborted {
		t.Fatalf("%s: unbudgeted run reported Aborted", row.name)
	}
	res, err := row.run(Options{Budget: bud})
	if err != nil {
		t.Fatalf("%s budgeted: %v", row.name, err)
	}
	if !res.Aborted || res.AbortReason != want {
		t.Fatalf("%s: Aborted=%v reason=%v, want %v abort", row.name, res.Aborted, res.AbortReason, want)
	}
	assertSubset(t, full.StateSpace, res.States, full.States, row.name)
}

// TestDeadlineAbortsAllEngines: an expired deadline must yield a
// structured Aborted result from every engine and SAT entry point.
func TestDeadlineAbortsAllEngines(t *testing.T) {
	c := gen.SLike(gen.SLikeParams{Seed: 3, Inputs: 6, Latches: 6, Gates: 60})
	target := trans.TargetFromPatterns(6, "XX1X0X")
	for _, row := range entryRows(c, target, allEngines) {
		checkBudgetAbort(t, row, expiredBudget(), budget.Deadline)
	}
}

// TestContextCancelAborts: a pre-cancelled context aborts with reason
// Cancelled on the SAT engines and entry points.
func TestContextCancelAborts(t *testing.T) {
	c := gen.Counter(8, true, false)
	target := trans.TargetFromPatterns(8, "XXXXXXX1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, row := range entryRows(c, target, []Engine{EngineSuccessDriven, EngineBlocking, EngineLifting}) {
		checkBudgetAbort(t, row, budget.Budget{Ctx: ctx}, budget.Cancelled)
	}
}

// TestParallelAbortMerge: the sliced parallel engine must merge
// per-slice aborts into the top-level result.
func TestParallelAbortMerge(t *testing.T) {
	c := gen.SLike(gen.SLikeParams{Seed: 4, Inputs: 6, Latches: 6, Gates: 60})
	target := trans.TargetFromPatterns(6, "X1XX0X")
	full, err := Compute(c, target, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compute(c, target, Options{Parallel: 4, Budget: expiredBudget()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("parallel: expired deadline not reported as Aborted")
	}
	if res.AbortReason != budget.Deadline {
		t.Fatalf("parallel: AbortReason = %v, want %v", res.AbortReason, budget.Deadline)
	}
	assertSubset(t, full.StateSpace, res.States, full.States, "parallel")
}

// TestReachCubeCapNeverClaimsFixpoint is the regression test for the
// headline bug: backward reachability on a cube-capped engine used to
// merge the truncated layer and then report convergence. A run whose
// layer aborted must never claim Fixpoint.
func TestReachCubeCapNeverClaimsFixpoint(t *testing.T) {
	c := gen.Counter(6, true, false)
	target := trans.TargetFromPatterns(6, "XXXXX1")
	opts := Options{Engine: EngineBlocking}
	opts.Budget.MaxCubes = 1
	res, err := Reach(c, target, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("cube-capped reach did not report Aborted")
	}
	if res.AbortReason != budget.Cubes {
		t.Fatalf("AbortReason = %v, want %v", res.AbortReason, budget.Cubes)
	}
	if res.Fixpoint {
		t.Fatal("cube-capped reach claimed a fixpoint from a truncated layer")
	}
}

// TestReachBudgetCubeCap exercises the same regression through the
// computation Budget instead of the engine budget.
func TestReachBudgetCubeCap(t *testing.T) {
	c := gen.Counter(6, true, false)
	target := trans.TargetFromPatterns(6, "XXXXX1")
	res, err := Reach(c, target, 0, Options{
		Engine: EngineBlocking,
		Budget: budget.Budget{MaxCubes: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted || res.Fixpoint {
		t.Fatalf("Aborted=%v Fixpoint=%v, want aborted non-fixpoint", res.Aborted, res.Fixpoint)
	}
}

// TestCheckReachableAbortsWithoutVerdict: a budget abort during the
// backward sweep must surface as Aborted, not as an unreachability
// verdict (Complete) and not as an error.
func TestCheckReachableAbortsWithoutVerdict(t *testing.T) {
	c := gen.Counter(8, true, false)
	init := trans.TargetFromPatterns(8, "00000000")
	bad := trans.TargetFromPatterns(8, "11111111")
	res, err := CheckReachable(c, init, bad, 0, Options{Budget: expiredBudget()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("aborted CheckReachable claimed a complete verdict")
	}
	if res.Reachable {
		t.Fatal("aborted CheckReachable fabricated a trace")
	}
	if !res.Aborted || res.AbortReason != budget.Deadline {
		t.Fatalf("Aborted=%v reason=%v, want deadline abort", res.Aborted, res.AbortReason)
	}
}

// TestForwardReachAbortNoFixpoint mirrors the backward regression on the
// forward engine.
func TestForwardReachAbortNoFixpoint(t *testing.T) {
	c := gen.Counter(6, true, false)
	init := trans.TargetFromPatterns(6, "000000")
	res, err := ForwardReach(c, init, 0, Options{Budget: expiredBudget()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Fatal("expired deadline not reported by ForwardReach")
	}
	if res.Fixpoint {
		t.Fatal("aborted ForwardReach claimed a fixpoint")
	}
}

// TestStatsRecording: a registry passed through Options collects each
// SAT entry point's counters exactly once, including the abort markers.
func TestStatsRecording(t *testing.T) {
	c := gen.Counter(8, true, false)
	target := trans.TargetFromPatterns(8, "XXXXXXX1")
	for _, row := range entryRows(c, target, []Engine{EngineSuccessDriven}) {
		reg := stats.NewRegistry("test")
		res, err := row.run(Options{Stats: reg})
		if err != nil {
			t.Fatal(err)
		}
		if d := reg.Counter("decisions").Load(); d == 0 || d != res.Stats.Decisions {
			t.Fatalf("%s: registry recorded %d decisions, result has %d", row.name, d, res.Stats.Decisions)
		}
		if reg.Counter("aborts").Load() != 0 {
			t.Fatalf("%s: complete run recorded an abort", row.name)
		}

		reg2 := stats.NewRegistry("test2")
		res, err = row.run(Options{Stats: reg2, Budget: expiredBudget()})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Aborted {
			t.Fatalf("%s: expired deadline not reported", row.name)
		}
		if reg2.Counter("aborts").Load() != 1 {
			t.Fatalf("%s: aborted run did not record the abort counter once", row.name)
		}
	}
}

// TestKStepDeadlineAborts: the unrolled k-step enumeration obeys the
// budget too.
func TestKStepDeadlineAborts(t *testing.T) {
	c := gen.Counter(8, true, false)
	target := trans.TargetFromPatterns(8, "XXXXXXX1")
	res, err := KStepPreimage(c, target, 3, Options{Budget: expiredBudget()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted || res.AbortReason != budget.Deadline {
		t.Fatalf("Aborted=%v reason=%v, want deadline abort", res.Aborted, res.AbortReason)
	}
}
