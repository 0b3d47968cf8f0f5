package sat

import (
	"context"
	"testing"
	"time"

	"allsatpre/internal/budget"
	"allsatpre/internal/lit"
)

func TestSolveDeadlineReturnsUnknownWithReason(t *testing.T) {
	f := phpFormula(9, 8)
	s := FromFormula(f, Options{
		Budget: budget.Budget{Deadline: time.Now().Add(-time.Second)},
	})
	if st := s.Solve(); st != Unknown {
		t.Fatalf("expired deadline: Solve = %v, want Unknown", st)
	}
	if r := s.StopReason(); r != budget.Deadline {
		t.Fatalf("StopReason = %v, want Deadline", r)
	}
}

func TestSolveCancelReturnsUnknownWithReason(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := phpFormula(9, 8)
	s := FromFormula(f, Options{Budget: budget.Budget{Ctx: ctx}})
	if st := s.Solve(); st != Unknown {
		t.Fatalf("cancelled context: Solve = %v, want Unknown", st)
	}
	if r := s.StopReason(); r != budget.Cancelled {
		t.Fatalf("StopReason = %v, want Cancelled", r)
	}
}

func TestSolveConflictCapSetsReason(t *testing.T) {
	f := phpFormula(9, 8) // hard enough to need more than a few conflicts
	s := FromFormula(f, Options{Budget: budget.Budget{MaxConflicts: 5}})
	if st := s.Solve(); st != Unknown {
		t.Fatalf("conflict cap: Solve = %v, want Unknown", st)
	}
	if r := s.StopReason(); r != budget.Conflicts {
		t.Fatalf("StopReason = %v, want Conflicts", r)
	}
}

func TestSolveBudgetCumulativeConflictCap(t *testing.T) {
	f := phpFormula(9, 8)
	s := FromFormula(f, Options{Budget: budget.Budget{MaxConflicts: 5}})
	if st := s.Solve(); st != Unknown {
		t.Fatalf("budget conflict cap: Solve = %v, want Unknown", st)
	}
	// The budget cap is cumulative: a second Solve trips immediately.
	before := s.Stats().Conflicts
	if st := s.Solve(); st != Unknown {
		t.Fatalf("second Solve = %v, want Unknown", st)
	}
	if after := s.Stats().Conflicts; after > before+1 {
		t.Fatalf("second Solve burned %d conflicts past a spent budget", after-before)
	}
}

func TestNewPreservesLimitsOverDefaultSubstitution(t *testing.T) {
	b := budget.Budget{MaxConflicts: 7, Timeout: time.Hour}
	s := New(Options{Budget: b})
	if s.opts.Budget.MaxConflicts != 7 {
		t.Fatal("Budget lost in default substitution")
	}
	if s.opts.Budget.Deadline.IsZero() || s.opts.Budget.Timeout != 0 {
		t.Fatal("Budget not materialized by New")
	}
	if s.opts.VarDecay != DefaultOptions().VarDecay {
		t.Fatal("defaults not applied")
	}
}

func TestSolveStopReasonClearedOnSuccess(t *testing.T) {
	s := NewDefault()
	v := s.NewVar()
	s.AddClause(lit.Pos(v))
	if st := s.Solve(); st != Sat {
		t.Fatalf("Solve = %v", st)
	}
	if r := s.StopReason(); r != budget.None {
		t.Fatalf("StopReason after Sat = %v, want None", r)
	}
}
