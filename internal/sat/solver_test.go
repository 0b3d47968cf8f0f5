package sat

import (
	"math/rand"
	"testing"

	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/lit"
)

func checkModel(t *testing.T, f *cnf.Formula, model []bool) {
	t.Helper()
	assign := make([]lit.Tern, f.NumVars)
	for v := 0; v < f.NumVars && v < len(model); v++ {
		assign[v] = lit.TernOf(model[v])
	}
	for i, c := range f.Clauses {
		if c.Eval(assign) != lit.True {
			t.Fatalf("model does not satisfy clause %d: %v", i, c)
		}
	}
}

func TestTrivial(t *testing.T) {
	s := NewDefault()
	v := s.NewVar()
	if !s.AddClause(lit.Pos(v)) {
		t.Fatal("AddClause failed")
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v, want SAT", st)
	}
	if !s.Model()[v] {
		t.Fatal("model should set v true")
	}
}

func TestEmptyFormulaIsSat(t *testing.T) {
	s := NewDefault()
	if st := s.Solve(); st != Sat {
		t.Fatalf("empty formula should be SAT, got %v", st)
	}
}

func TestTopLevelConflict(t *testing.T) {
	s := NewDefault()
	v := s.NewVar()
	s.AddClause(lit.Pos(v))
	if s.AddClause(lit.Neg(v)) {
		t.Fatal("adding conflicting unit should fail")
	}
	if s.okay {
		t.Fatal("solver should not be okay")
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v, want UNSAT", st)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := NewDefault()
	if s.AddClause() {
		t.Fatal("empty clause should make the solver unsat")
	}
}

func TestAddClauseNormalization(t *testing.T) {
	s := NewDefault()
	a, b := s.NewVar(), s.NewVar()
	// Tautology is a no-op.
	if !s.AddClause(lit.Pos(a), lit.Neg(a)) {
		t.Fatal("tautology should succeed")
	}
	if s.NumClauses() != 0 {
		t.Fatal("tautology should not be stored")
	}
	// Duplicate literals collapse.
	if !s.AddClause(lit.Pos(a), lit.Pos(a), lit.Pos(b)) {
		t.Fatal("AddClause failed")
	}
	if s.NumClauses() != 1 {
		t.Fatalf("want 1 clause, got %d", s.NumClauses())
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(n+1, n): n+1 pigeons into n holes — classic UNSAT family.
	for _, n := range []int{2, 3, 4, 5, 6} {
		s := NewDefault()
		// var p*n + h: pigeon p sits in hole h
		vr := func(p, h int) lit.Var { return lit.Var(p*n + h) }
		s.EnsureVars((n + 1) * n)
		for p := 0; p <= n; p++ {
			c := make([]lit.Lit, n)
			for h := 0; h < n; h++ {
				c[h] = lit.Pos(vr(p, h))
			}
			s.AddClause(c...)
		}
		for h := 0; h < n; h++ {
			for p1 := 0; p1 <= n; p1++ {
				for p2 := p1 + 1; p2 <= n; p2++ {
					s.AddClause(lit.Neg(vr(p1, h)), lit.Neg(vr(p2, h)))
				}
			}
		}
		if st := s.Solve(); st != Unsat {
			t.Fatalf("PHP(%d,%d): got %v, want UNSAT", n+1, n, st)
		}
	}
}

func TestPigeonholeSatVariant(t *testing.T) {
	// n pigeons into n holes is SAT.
	n := 5
	s := NewDefault()
	vr := func(p, h int) lit.Var { return lit.Var(p*n + h) }
	f := cnf.New(n * n)
	for p := 0; p < n; p++ {
		c := make([]lit.Lit, n)
		for h := 0; h < n; h++ {
			c[h] = lit.Pos(vr(p, h))
		}
		f.Add(c...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 < n; p1++ {
			for p2 := p1 + 1; p2 < n; p2++ {
				f.Add(lit.Neg(vr(p1, h)), lit.Neg(vr(p2, h)))
			}
		}
	}
	s = FromFormula(f, DefaultOptions())
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v, want SAT", st)
	}
	checkModel(t, f, s.Model())
}

func randomFormula(rng *rand.Rand, nVars, nClauses, k int) *cnf.Formula {
	f := cnf.New(nVars)
	for i := 0; i < nClauses; i++ {
		c := make(cnf.Clause, 0, k)
		for len(c) < k {
			v := lit.Var(rng.Intn(nVars))
			l := lit.New(v, rng.Intn(2) == 0)
			dup := false
			for _, x := range c {
				if x.Var() == v {
					dup = true
					break
				}
			}
			if !dup {
				c = append(c, l)
			}
		}
		f.AddClause(c)
	}
	return f
}

// TestAgainstBruteForce cross-checks SAT/UNSAT answers and models against
// exhaustive enumeration on hundreds of random 3-CNFs around the phase
// transition.
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 400; iter++ {
		nVars := 3 + rng.Intn(10)
		nClauses := 1 + rng.Intn(nVars*5)
		f := randomFormula(rng, nVars, nClauses, 3)
		want := f.CountModels() > 0
		s := FromFormula(f, DefaultOptions())
		st := s.Solve()
		if want && st != Sat {
			t.Fatalf("iter %d: solver says %v but formula is SAT\n%s", iter, st, cnf.DimacsString(f, nil))
		}
		if !want && st != Unsat {
			t.Fatalf("iter %d: solver says %v but formula is UNSAT\n%s", iter, st, cnf.DimacsString(f, nil))
		}
		if st == Sat {
			checkModel(t, f, s.Model())
		}
	}
}

func TestIncrementalAddClause(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 60; iter++ {
		nVars := 4 + rng.Intn(8)
		s := New(DefaultOptions())
		s.EnsureVars(nVars)
		f := cnf.New(nVars)
		unsatYet := false
		for step := 0; step < 30; step++ {
			c := randomFormula(rng, nVars, 1, 2+rng.Intn(2)).Clauses[0]
			f.AddClause(c)
			ok := s.AddClause(c...)
			want := f.CountModels() > 0
			if !ok {
				if want {
					t.Fatalf("iter %d step %d: AddClause failed but formula still SAT", iter, step)
				}
				unsatYet = true
				break
			}
			st := s.Solve()
			if want && st != Sat || !want && st != Unsat {
				t.Fatalf("iter %d step %d: got %v, want sat=%v", iter, step, st, want)
			}
			if st == Sat {
				checkModel(t, f, s.Model())
			}
			if st == Unsat {
				unsatYet = true
				break
			}
		}
		_ = unsatYet
	}
}

func TestAssumptions(t *testing.T) {
	// (a ∨ b) ∧ (¬a ∨ c): assuming ¬b forces a, then c.
	s := NewDefault()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(lit.Pos(a), lit.Pos(b))
	s.AddClause(lit.Neg(a), lit.Pos(c))
	if st := s.Solve(lit.Neg(b)); st != Sat {
		t.Fatalf("got %v, want SAT", st)
	}
	m := s.Model()
	if !m[a] || m[b] || !m[c] {
		t.Fatalf("bad model %v", m)
	}
	// Assuming ¬a and ¬b is UNSAT.
	if st := s.Solve(lit.Neg(a), lit.Neg(b)); st != Unsat {
		t.Fatalf("got %v, want UNSAT", st)
	}
	// Solver is reusable after UNSAT-under-assumptions.
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v, want SAT without assumptions", st)
	}
}

func TestAssumptionsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 150; iter++ {
		nVars := 4 + rng.Intn(7)
		f := randomFormula(rng, nVars, 2+rng.Intn(3*nVars), 3)
		s := FromFormula(f, DefaultOptions())
		if !s.okay {
			continue
		}
		// Random assumptions over distinct vars.
		nA := 1 + rng.Intn(3)
		assume := []lit.Lit{}
		used := map[lit.Var]bool{}
		for len(assume) < nA {
			v := lit.Var(rng.Intn(nVars))
			if used[v] {
				continue
			}
			used[v] = true
			assume = append(assume, lit.New(v, rng.Intn(2) == 0))
		}
		// Ground truth: add assumptions as units to a copy.
		g := f.Clone()
		for _, l := range assume {
			g.Add(l)
		}
		want := g.CountModels() > 0
		st := s.Solve(assume...)
		if want && st != Sat || !want && st != Unsat {
			t.Fatalf("iter %d: got %v, want sat=%v under %v\n%s",
				iter, st, want, assume, cnf.DimacsString(f, nil))
		}
		if st == Sat {
			checkModel(t, g, s.Model())
		}
	}
}

func TestMaxConflictsBudget(t *testing.T) {
	// A hard instance with a tiny budget should return Unknown.
	n := 8
	s := New(Options{Budget: budget.Budget{MaxConflicts: 3}})
	vr := func(p, h int) lit.Var { return lit.Var(p*n + h) }
	s.EnsureVars((n + 1) * n)
	for p := 0; p <= n; p++ {
		c := make([]lit.Lit, n)
		for h := 0; h < n; h++ {
			c[h] = lit.Pos(vr(p, h))
		}
		s.AddClause(c...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(lit.Neg(vr(p1, h)), lit.Neg(vr(p2, h)))
			}
		}
	}
	if st := s.Solve(); st != Unknown {
		t.Fatalf("got %v, want UNKNOWN under budget", st)
	}
	// Removing the budget must give the real answer.
	s.opts.Budget = budget.Budget{}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v, want UNSAT", st)
	}
}

func TestReduceDBKeepsSoundness(t *testing.T) {
	// Force many conflicts so reduceDB triggers, then validate the answer.
	rng := rand.New(rand.NewSource(1234))
	opts := DefaultOptions()
	opts.LearntFactor = 0.01 // aggressive reduction
	for iter := 0; iter < 30; iter++ {
		nVars := 10 + rng.Intn(6)
		f := randomFormula(rng, nVars, 4*nVars, 3)
		want := f.CountModels() > 0
		s := FromFormula(f, opts)
		st := s.Solve()
		if want && st != Sat || !want && st != Unsat {
			t.Fatalf("iter %d: got %v, want sat=%v", iter, st, want)
		}
		if st == Sat {
			checkModel(t, f, s.Model())
		}
	}
}

func TestSimplifyKeepsAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 50; iter++ {
		nVars := 5 + rng.Intn(6)
		f := randomFormula(rng, nVars, 3*nVars, 3)
		want := f.CountModels() > 0
		s := FromFormula(f, DefaultOptions())
		s.Solve()
		s.Simplify()
		st := s.Solve()
		if want && st != Sat || !want && st != Unsat {
			t.Fatalf("iter %d: after Simplify got %v, want sat=%v", iter, st, want)
		}
	}
}

func TestLuby(t *testing.T) {
	want := []uint64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(uint64(i)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestStatsProgress(t *testing.T) {
	s := NewDefault()
	f := randomFormula(rand.New(rand.NewSource(3)), 12, 50, 3)
	s.LoadFormula(f)
	s.Solve()
	st := s.Stats()
	if st.Decisions == 0 && st.Propagations == 0 {
		t.Error("expected some search activity")
	}
}

func TestPhaseSavingRepeatability(t *testing.T) {
	// Solving the same satisfiable instance twice in a row must both be SAT.
	f := randomFormula(rand.New(rand.NewSource(8)), 10, 20, 3)
	s := FromFormula(f, DefaultOptions())
	if s.Solve() == Sat {
		if st := s.Solve(); st != Sat {
			t.Fatalf("second solve got %v", st)
		}
		checkModel(t, f, s.Model())
	}
}

func TestXorChain(t *testing.T) {
	// x0 ⊕ x1 ⊕ ... ⊕ xn = 1 encoded pairwise with auxiliary vars: exactly
	// half of assignments satisfy; solver must find one and honor parity.
	n := 12
	s := NewDefault()
	vars := make([]lit.Var, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	// aux[i] = parity of x0..xi
	aux := make([]lit.Var, n)
	aux[0] = vars[0]
	for i := 1; i < n; i++ {
		aux[i] = s.NewVar()
		a, b, c := aux[i-1], vars[i], aux[i]
		// c = a ⊕ b
		s.AddClause(lit.Neg(a), lit.Neg(b), lit.Neg(c))
		s.AddClause(lit.Pos(a), lit.Pos(b), lit.Neg(c))
		s.AddClause(lit.Neg(a), lit.Pos(b), lit.Pos(c))
		s.AddClause(lit.Pos(a), lit.Neg(b), lit.Pos(c))
	}
	s.AddClause(lit.Pos(aux[n-1]))
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v, want SAT", st)
	}
	m := s.Model()
	parity := false
	for _, v := range vars {
		parity = parity != m[v]
	}
	if !parity {
		t.Fatal("model violates odd parity constraint")
	}
}

func TestVarHeapOrdering(t *testing.T) {
	act := []float64{1, 5, 3, 9, 2}
	h := newVarHeap(&act)
	for v := 0; v < len(act); v++ {
		h.insert(lit.Var(v))
	}
	want := []lit.Var{3, 1, 2, 4, 0}
	for i, w := range want {
		if h.empty() {
			t.Fatalf("heap empty at %d", i)
		}
		if got := h.removeMin(); got != w {
			t.Fatalf("pop %d: got %v, want %v", i, got, w)
		}
	}
	if !h.empty() {
		t.Fatal("heap should be empty")
	}
}

func TestVarHeapDecrease(t *testing.T) {
	act := []float64{1, 2, 3}
	h := newVarHeap(&act)
	for v := 0; v < 3; v++ {
		h.insert(lit.Var(v))
	}
	act[0] = 100
	h.decrease(0)
	if got := h.removeMin(); got != 0 {
		t.Fatalf("after bump, pop = %v, want v0", got)
	}
	h.insert(0) // re-insert; duplicate insert must be a no-op
	h.insert(0)
	if len(h.heap) != 3 {
		t.Fatalf("duplicate insert changed size: %d", len(h.heap))
	}
	h.rebuild()
	if got := h.removeMin(); got != 0 {
		t.Fatalf("after rebuild, pop = %v, want v0", got)
	}
}

func TestSolverString(t *testing.T) {
	s := NewDefault()
	s.NewVar()
	if s.String() == "" {
		t.Error("empty String()")
	}
	if Sat.String() != "SAT" || Unsat.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Error("Status.String mismatch")
	}
}

func TestModelBufReuse(t *testing.T) {
	s := NewDefault()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(lit.Pos(a), lit.Pos(b))
	s.AddClause(lit.Neg(a))
	if s.Solve() != Sat {
		t.Fatal("expected SAT")
	}
	want := s.Model()
	buf := s.ModelBuf(nil)
	if len(buf) != len(want) {
		t.Fatalf("ModelBuf len %d, want %d", len(buf), len(want))
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("ModelBuf[%d] = %v, want %v", i, buf[i], want[i])
		}
	}
	// A second call into the same buffer must reuse its backing array.
	again := s.ModelBuf(buf)
	if len(again) > 0 && len(buf) > 0 && &again[0] != &buf[0] {
		t.Fatal("ModelBuf reallocated despite sufficient capacity")
	}
}

func TestEnsureVarsBulkGrow(t *testing.T) {
	s := NewDefault()
	s.EnsureVars(1000)
	if s.NumVars() != 1000 {
		t.Fatalf("NumVars %d, want 1000", s.NumVars())
	}
	if len(s.watches) != 2000 {
		t.Fatalf("watches len %d, want 2000", len(s.watches))
	}
	s.EnsureVars(10) // no-op shrink attempt
	if s.NumVars() != 1000 {
		t.Fatalf("NumVars shrank to %d", s.NumVars())
	}
}

func TestActivationLiteralRetire(t *testing.T) {
	// Pins the activation-literal contract the incremental reach session
	// (internal/incr) relies on: a clause group gated on ¬act is enabled
	// by assuming act, survives UNSAT answers, and is permanently retired
	// by the unit clause ¬act — after which the solver behaves as if the
	// group was never added.
	s := NewDefault()
	act1, act2 := s.NewVar(), s.NewVar()
	x, y := s.NewVar(), s.NewVar()
	// Group 1: act1 → x, act1 → y. Group 2: act2 → ¬x.
	s.AddClause(lit.Neg(act1), lit.Pos(x))
	s.AddClause(lit.Neg(act1), lit.Pos(y))
	s.AddClause(lit.Neg(act2), lit.Neg(x))

	// Both groups active: x ∧ ¬x, so UNSAT.
	if st := s.Solve(lit.Pos(act1), lit.Pos(act2)); st != Unsat {
		t.Fatalf("both groups: got %v, want UNSAT", st)
	}

	// Group 1 alone is satisfiable and forces x, y.
	if st := s.Solve(lit.Pos(act1)); st != Sat {
		t.Fatalf("group 1: got %v, want SAT", st)
	}
	if m := s.Model(); !m[x] || !m[y] {
		t.Fatalf("group 1 model: x=%v y=%v, want both true", m[x], m[y])
	}

	// Retire group 1. The unit must be accepted, and from now on group 2
	// alone governs: x is forced false, and re-assuming act1 is a
	// top-level contradiction, not a crash.
	if !s.AddClause(lit.Neg(act1)) {
		t.Fatal("retiring unit ¬act1 rejected")
	}
	if st := s.Solve(lit.Pos(act2)); st != Sat {
		t.Fatalf("after retire: got %v, want SAT", st)
	}
	if m := s.Model(); m[x] {
		t.Fatal("after retire, group 2 should force x=false")
	}
	if st := s.Solve(lit.Pos(act1)); st != Unsat {
		t.Fatalf("assuming retired act1: got %v, want UNSAT", st)
	}
	// And the solver keeps working without assumptions afterwards.
	if st := s.Solve(); st != Sat {
		t.Fatalf("final solve: got %v, want SAT", st)
	}
}
