package sat

import (
	"testing"

	"allsatpre/internal/lit"
)

func sameLits(got []lit.Lit, want ...lit.Lit) bool {
	if len(got) != len(want) {
		return false
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			found = found || g == w
		}
		if !found {
			return false
		}
	}
	return true
}

// TestKernelFailed drives the kernel surface by hand and checks the
// final-conflict analysis on both of its inputs: a propagation conflict
// and a literal already false when it would be decided.
func TestKernelFailed(t *testing.T) {
	s := NewDefault()
	a, b, c, x, y := lit.Pos(0), lit.Pos(1), lit.Pos(2), lit.Pos(3), lit.Pos(4)
	s.AddClause(a.Not(), x)          // a → x
	s.AddClause(b.Not(), x.Not(), y) // b ∧ x → y
	s.AddClause(b.Not(), y.Not())    // b → ¬y
	s.AddClause(c.Not())             // ¬c at the root

	s.Decide(a)
	if !s.Propagate() {
		t.Fatal("a alone conflicts")
	}
	if s.LitValue(x) != lit.True || s.DecisionLevel() != 1 || s.LevelStart(1) != 1 {
		t.Fatalf("after deciding a: x=%v level=%d start=%d", s.LitValue(x), s.DecisionLevel(), s.LevelStart(1))
	}
	s.Decide(b)
	if s.Propagate() {
		t.Fatal("a ∧ b should conflict")
	}
	if got := s.Failed(lit.UndefLit); !sameLits(got, a, b) {
		t.Fatalf("conflict resolves to %v, want {a, b}", got)
	}
	s.Backtrack(1)
	if s.DecisionLevel() != 1 || len(s.Trail()) != 3 {
		t.Fatalf("backtrack to 1: level %d, trail %v", s.DecisionLevel(), s.Trail())
	}
	// Root-false: the formula alone excludes c.
	if got := s.Failed(c); !sameLits(got, c) {
		t.Fatalf("root-false c resolves to %v, want {c}", got)
	}
	// ¬x is false under a: the failed set is the decision that implied x,
	// then ¬x itself.
	if got := s.Failed(x.Not()); !sameLits(got, a, x.Not()) || got[len(got)-1] != x.Not() {
		t.Fatalf("¬x resolves to %v, want [a ¬x]", got)
	}
	s.Backtrack(0)
	if st := s.Solve(b); st != Sat {
		t.Fatalf("the kernel calls left the solver unusable: %v", st)
	}
}

// TestKernelLearnAndRetire learns attach-only clauses under an activation
// literal through the kernel surface, then retires the group with the
// unit ¬act and Simplify: every clause the unit satisfies — the group's
// and the learnts derived from it — must be gone.
func TestKernelLearnAndRetire(t *testing.T) {
	s := NewDefault()
	act := lit.Pos(s.NewVar())
	gate := act.Not()
	// Gated on act: each decision d_i forces y_i and ¬y_i, so deciding it
	// under act conflicts and teaches (¬d_i ∨ ¬act).
	const n = 4
	ds := make([]lit.Lit, n)
	for i := range ds {
		ds[i] = lit.Pos(s.NewVar())
		y := lit.Pos(s.NewVar())
		s.AddClause(gate, ds[i].Not(), y)
		s.AddClause(gate, ds[i].Not(), y.Not())
	}
	s.AddClause(ds[0], ds[1], lit.Pos(s.NewVar())) // an ungated clause survives

	s.Decide(act)
	if !s.Propagate() {
		t.Fatal("act alone conflicts")
	}
	for _, d := range ds {
		s.Decide(d)
		if s.Propagate() {
			t.Fatalf("deciding %v under act did not conflict", d)
		}
		if got := s.Learn(); got != 2 {
			t.Fatalf("learnt clause of length %d, want (¬d ∨ ¬act)", got)
		}
		s.Backtrack(1)
	}
	s.Backtrack(0)
	if len(s.learnts) != n {
		t.Fatalf("solver holds %d learnts, want %d", len(s.learnts), n)
	}
	if !s.AddClause(gate) || !s.Simplify() {
		t.Fatal("retiring the group made the formula UNSAT")
	}
	if len(s.learnts) != 0 || len(s.clauses) != 1 {
		t.Fatalf("after retirement: %d learnts, %d problem clauses; want 0 and 1",
			len(s.learnts), len(s.clauses))
	}
	for li := range s.binWatches {
		for _, w := range s.binWatches[li] {
			if s.ca.isDeleted(cref(w.c)) {
				t.Fatal("a retired binary clause is still watched")
			}
		}
	}
}
