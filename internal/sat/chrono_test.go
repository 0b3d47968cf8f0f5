package sat

import (
	"fmt"
	"math/rand"
	"testing"

	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cnf"
	"allsatpre/internal/gen"
	"allsatpre/internal/lit"
	"allsatpre/internal/simplify"
	"allsatpre/internal/trans"
)

func randomCNF(rng *rand.Rand, nVars, nClauses, k int) *cnf.Formula {
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

// expandCube enumerates the projected minterms covered by a chrono cube
// (projection literals, possibly a strict subset of proj) as bitstrings
// in proj order.
func expandCube(proj []lit.Var, cb []lit.Lit) []string {
	fixed := make(map[lit.Var]bool, len(cb))
	for _, l := range cb {
		fixed[l.Var()] = !l.Sign()
	}
	var free []int
	base := make([]byte, len(proj))
	for i, v := range proj {
		if val, ok := fixed[v]; ok {
			if val {
				base[i] = '1'
			} else {
				base[i] = '0'
			}
		} else {
			free = append(free, i)
		}
	}
	out := make([]string, 0, 1<<uint(len(free)))
	for x := 0; x < 1<<uint(len(free)); x++ {
		for bi, i := range free {
			if x&(1<<uint(bi)) != 0 {
				base[i] = '1'
			} else {
				base[i] = '0'
			}
		}
		out = append(out, string(base))
	}
	return out
}

// TestChronoEnumRandom checks, on random 3-CNF instances, that the
// chronological enumerator emits pairwise-disjoint cubes whose union is
// exactly the brute-force projection, and that it never adds a clause
// per solution (learnt count stays bounded by conflicts, and no blocking
// clauses exist by construction).
func TestChronoEnumRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		nVars := 4 + rng.Intn(8)
		f := randomCNF(rng, nVars, 2+rng.Intn(3*nVars), 3)
		nProj := 1 + rng.Intn(nVars)
		proj := make([]lit.Var, nProj)
		perm := rng.Perm(nVars)
		for i := range proj {
			proj[i] = lit.Var(perm[i])
		}
		want := f.ProjectedModels(proj)

		s := FromFormula(f, Options{})
		e := NewChronoEnum(s, proj)
		got := make(map[string]bool)
		for {
			st := e.Next()
			if st == Unknown {
				t.Fatalf("trial %d: unexpected budget stop", trial)
			}
			if st == Unsat {
				break
			}
			for _, m := range expandCube(proj, e.Cube()) {
				if got[m] {
					t.Fatalf("trial %d: minterm %s covered twice (cubes overlap)", trial, m)
				}
				got[m] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d projections, want %d", trial, len(got), len(want))
		}
		for m := range want {
			if !got[m] {
				t.Fatalf("trial %d: missing projection %s", trial, m)
			}
		}
	}
}

// TestChronoEnumUnsat: an unsatisfiable formula yields no cubes.
func TestChronoEnumUnsat(t *testing.T) {
	f := cnf.New(2)
	f.Add(lit.New(0, false))
	f.Add(lit.New(0, true))
	s := FromFormula(f, Options{})
	e := NewChronoEnum(s, []lit.Var{0, 1})
	if st := e.Next(); st != Unsat {
		t.Fatalf("unsat formula: got %v", st)
	}
}

// TestChronoEnumEmptyFormula: with no clauses the first cube is fully
// free and covers the whole space in one step.
func TestChronoEnumEmptyFormula(t *testing.T) {
	f := cnf.New(3)
	s := FromFormula(f, Options{})
	e := NewChronoEnum(s, []lit.Var{0, 1, 2})
	if st := e.Next(); st != Sat {
		t.Fatalf("first Next: got %v, want Sat", st)
	}
	if len(e.Cube()) != 0 {
		t.Fatalf("cube fixes %d literals, want fully free", len(e.Cube()))
	}
	if st := e.Next(); st != Unsat {
		t.Fatalf("second Next: got %v, want exhausted", st)
	}
}

// TestChronoEnumBudget: a decision budget stops the enumeration with
// Unknown and a recorded reason.
func TestChronoEnumBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := randomCNF(rng, 12, 20, 3)
	proj := make([]lit.Var, 12)
	for i := range proj {
		proj[i] = lit.Var(i)
	}
	s := FromFormula(f, Options{Budget: budget.Budget{MaxDecisions: 5}})
	e := NewChronoEnum(s, proj)
	for i := 0; ; i++ {
		st := e.Next()
		if st == Unknown {
			if e.StopReason() != budget.Decisions {
				t.Fatalf("stop reason %v, want decisions", e.StopReason())
			}
			if e.exhausted {
				t.Fatal("budget stop reported as exhaustion")
			}
			return
		}
		if st == Unsat {
			t.Fatal("5-decision budget never tripped on a 12-var instance")
		}
		if i > 100 {
			t.Fatal("runaway enumeration")
		}
	}
}

// pigeonhole encodes PHP(n+1, n): n+1 pigeons into n holes — unsat, and
// famously conflict-dense, so the CDCL search spends long streaks on the
// conflict path.
func pigeonhole(n int) *cnf.Formula {
	f := cnf.New((n + 1) * n)
	x := func(p, h int) lit.Var { return lit.Var(p*n + h) }
	for p := 0; p <= n; p++ {
		c := make(cnf.Clause, n)
		for h := 0; h < n; h++ {
			c[h] = lit.New(x(p, h), false)
		}
		f.AddClause(c)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				f.Add(lit.New(x(p1, h), true), lit.New(x(p2, h), true))
			}
		}
	}
	return f
}

// TestConflictCapStreakBound is the regression test for the conflict-path
// budget poll: a consecutive-conflict streak must stop within the
// amortization window (64 conflicts) of Budget.MaxConflicts instead of
// overshooting it arbitrarily. The poll makes the bound unconditional —
// it holds for any instance, not just ones whose learnt clauses happen to
// assert without an immediate follow-on conflict — so the assertion here
// pins the contract on a conflict-dense refutation at several caps.
func TestConflictCapStreakBound(t *testing.T) {
	for _, cap := range []uint64{1, 10, 100} {
		s := FromFormula(pigeonhole(9), Options{Budget: budget.Budget{MaxConflicts: cap}})
		st := s.Solve()
		if st != Unknown {
			t.Fatalf("cap %d: got %v, want Unknown (php9 needs far more conflicts)", cap, st)
		}
		if s.StopReason() != budget.Conflicts {
			t.Fatalf("cap %d: stop reason %v, want conflicts", cap, s.StopReason())
		}
		if got := s.Stats().Conflicts; got > cap+64 {
			t.Fatalf("cap %d: %d conflicts, overshoot %d exceeds the 64-conflict poll window",
				cap, got, got-cap)
		}
	}
}

// TestChronoAttachOnlySurvival pins the retention rule chrono's
// attach-only learnts rely on: a learnt that pruned a visited subtree —
// i.e. participated in a conflict since the last reduction round, which
// sets its used bit — must never be deleted by the reduceDB cycle that
// follows, no matter how bad its activity or tier. Deleting it would be
// sound (the clause is implied by F) but would let the enumeration
// re-descend into a subtree it already refuted.
func TestChronoAttachOnlySurvival(t *testing.T) {
	s := NewDefault()
	nVars := 24
	s.EnsureVars(nVars)
	// The protected clause: installed exactly the way learnAttached
	// installs an attach-only learnt, with a worst-possible profile — local
	// tier (huge LBD), zero activity — then marked used, as conflict
	// analysis does when the clause prunes a descent.
	protected := make([]lit.Lit, 0, 8)
	for i := 0; i < 8; i++ {
		protected = append(protected, lit.New(lit.Var(i), i%2 == 0))
	}
	pc := s.installLearnt(protected, tier2LBD+10)
	if s.ca.tier(pc) != tierLocal {
		t.Fatalf("protected clause landed in tier %d, want local", s.ca.tier(pc))
	}
	s.ca.setActivity(pc, 0)
	s.ca.setUsed(pc) // "pruned a visited subtree this round"

	// Junk local learnts with higher activity, unused: reduceDB's sorted
	// deletion would pick the zero-activity protected clause first if the
	// used bit did not shield it.
	for j := 0; j < 40; j++ {
		c := make([]lit.Lit, 0, 6)
		for i := 0; i < 6; i++ {
			c = append(c, lit.New(lit.Var(8+(j+i)%(nVars-8)), (j+i)%2 == 0))
		}
		jc := s.installLearnt(c, tier2LBD+10)
		s.ca.clearUsed(jc)
		s.ca.setActivity(jc, float64(j+1))
	}

	before := s.nLocal
	s.reduceDB()
	if s.ca.isDeleted(pc) {
		t.Fatal("reduceDB deleted a used attach-only learnt")
	}
	found := false
	for _, c := range s.learnts {
		if c == pc {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("used attach-only learnt fell out of the learnt list")
	}
	if s.stats.Reduced == 0 || s.nLocal >= before {
		t.Fatalf("reduction was a no-op (reduced=%d, local %d -> %d): the shield was never tested",
			s.stats.Reduced, before, s.nLocal)
	}
	// The shield is one-round: reduceDB cleared the used bit, so a clause
	// that stops being useful becomes deletable again (no leak).
	if s.ca.isUsed(pc) {
		t.Fatal("reduceDB left the used bit set; protection would be permanent")
	}
	checkArenaInvariants(t, s)
}

// TestChronoReduceDBMidEnumerationExact forces reduceDB after every
// learnt install (maxLearnts driven below zero) and checks the cover is
// still the exact brute-force projection: clause deletion plus arena
// compaction mid-enumeration must not perturb disjointness or
// completeness.
func TestChronoReduceDBMidEnumerationExact(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		nVars := 6 + rng.Intn(6)
		f := randomCNF(rng, nVars, 3*nVars, 3)
		nProj := 1 + rng.Intn(nVars)
		proj := make([]lit.Var, nProj)
		perm := rng.Perm(nVars)
		for i := range proj {
			proj[i] = lit.Var(perm[i])
		}
		want := f.ProjectedModels(proj)

		s := FromFormula(f, Options{})
		e := NewChronoEnum(s, proj)
		s.maxLearnts = -1e18 // reduceNeeded() is now always true
		got := make(map[string]bool)
		for {
			st := e.Next()
			if st == Unknown {
				t.Fatalf("trial %d: unexpected budget stop", trial)
			}
			if st == Unsat {
				break
			}
			for _, m := range expandCube(proj, e.Cube()) {
				if got[m] {
					t.Fatalf("trial %d: minterm %s covered twice under forced reduceDB", trial, m)
				}
				got[m] = true
			}
			checkArenaInvariants(t, s)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d minterms, brute force says %d", trial, len(got), len(want))
		}
		for m := range want {
			if !got[m] {
				t.Fatalf("trial %d: minterm %s missing under forced reduceDB", trial, m)
			}
		}
	}
}

// scanSatLevel is the deepest decision level holding some clause's
// first satisfying literal, by a scan over every problem clause: the
// reference TestChronoSatLevelMatchesScan checks the decision level
// against.
func scanSatLevel(e *ChronoEnum) int {
	s := e.s
	b := 0
	for ci := range e.clauses {
		if lv := s.level[s.trail[e.satBy[ci]].Var()]; lv > b {
			b = lv
		}
	}
	return b
}

// chronoStream drains a chronological enumeration of f's projection
// onto proj, calling atEmit at every emission, and returns the cubes in
// emission order.
func chronoStream(t *testing.T, f *cnf.Formula, proj []lit.Var, atEmit func(*ChronoEnum)) []string {
	t.Helper()
	e := NewChronoEnum(FromFormula(f, Options{}), proj)
	var out []string
	for {
		switch e.next(atEmit) {
		case Unsat:
			return out
		case Unknown:
			t.Fatalf("unexpected budget stop (%v)", e.StopReason())
		}
		out = append(out, fmt.Sprint(e.Cube()))
	}
}

// TestChronoSatLevelMatchesScan pins the premise emit rests on when it
// keeps the whole projection prefix: at every cube, the deepest level
// any clause needs for a satisfying literal (the per-clause scan) is the
// current decision level, so no cut above the prefix was ever possible.
// It runs on random CNFs and on the preimage instances of the
// determinism circuits (state-only projections raw and simplified,
// (state, input) projections simplified).
func TestChronoSatLevelMatchesScan(t *testing.T) {
	cubes := 0
	check := func(tag string, f *cnf.Formula, proj []lit.Var) int {
		t.Helper()
		n := len(chronoStream(t, f, proj, func(e *ChronoEnum) {
			if got, want := e.s.DecisionLevel(), scanSatLevel(e); got != want {
				t.Fatalf("%s: decision level %d, clause scan %d", tag, got, want)
			}
		}))
		cubes += n
		return n
	}

	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		nVars := 6 + rng.Intn(12)
		f := randomCNF(rng, nVars, 2+rng.Intn(3*nVars), 3)
		proj := make([]lit.Var, 1+rng.Intn(nVars))
		for i, v := range rng.Perm(nVars)[:len(proj)] {
			proj[i] = lit.Var(v)
		}
		check(fmt.Sprintf("random %d", trial), f, proj)
	}

	for _, nc := range []struct {
		name   string
		c      *circuit.Circuit
		target string // a target with a non-empty preimage
	}{
		{"counter8", gen.Counter(8, true, false), "X1XX0XXX"},
		{"shift8", gen.ShiftRegister(8), "X1XX0XXX"},
		{"lfsr8", gen.LFSR(8, 0, 3, 4, 5), "X1XX0XXX"},
		{"gray6", gen.GrayCounter(6), "X1XX0X"},
		{"traffic", gen.TrafficLight(), "X1XX0"},
		{"slike1", gen.SLike(gen.SLikeParams{Seed: 1, Inputs: 6, Latches: 6, Gates: 60}), "1XXX0X"},
		{"slike2", gen.SLike(gen.SLikeParams{Seed: 2, Inputs: 8, Latches: 8, Gates: 120}), "X1XX0XXX"},
	} {
		inst, err := trans.NewInstance(nc.c, trans.TargetFromPatterns(len(nc.target), nc.target))
		if err != nil {
			t.Fatal(err)
		}
		full, _ := inst.OrderedProjection(false, false)
		for _, proj := range [][]lit.Var{inst.StateVars, full} {
			simplified := inst.F.Clone()
			simplify.RunFrozen(simplified, proj)
			tag := fmt.Sprintf("%s/%d-var projection", nc.name, len(proj))
			if check(tag+"/simplified", simplified, proj) == 0 {
				t.Fatalf("%s: empty preimage, nothing compared", tag)
			}
			if len(proj) == len(inst.StateVars) {
				// The raw (state, input) streams run to tens of
				// thousands of cubes; the simplified one is what the
				// engines enumerate.
				check(tag, inst.F, proj)
			}
		}
	}
	if cubes < 1000 {
		t.Fatalf("only %d cubes checked", cubes)
	}
}
