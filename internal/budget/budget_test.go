package budget

import (
	"context"
	"testing"
	"time"
)

func TestZeroBudgetNeverTrips(t *testing.T) {
	var b Budget
	if !b.IsZero() {
		t.Fatal("zero budget should report IsZero")
	}
	c := b.Start()
	for i := 0; i < 10*pollPeriod; i++ {
		if r := c.Poll(); r != None {
			t.Fatalf("zero budget tripped with %v", r)
		}
	}
	if c.Now() != None {
		t.Fatal("zero budget tripped on Now")
	}
}

func TestExpiredDeadlineTripsImmediately(t *testing.T) {
	b := Budget{Deadline: time.Now().Add(-time.Second)}
	c := b.Start()
	if r := c.Poll(); r != Deadline {
		t.Fatalf("expired deadline: first Poll = %v, want Deadline", r)
	}
	// Sticky.
	if r := c.Poll(); r != Deadline {
		t.Fatalf("reason not sticky: %v", r)
	}
}

func TestCancelledContextTrips(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := Budget{Ctx: ctx}
	c := b.Start()
	if r := c.Now(); r != None {
		t.Fatalf("live context tripped with %v", r)
	}
	cancel()
	if r := c.Now(); r != Cancelled {
		t.Fatalf("cancelled context: Now = %v, want Cancelled", r)
	}
}

func TestCancelledContextTripsViaAmortizedPoll(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := Budget{Ctx: ctx}.Start()
	// Start's immediate check already caught it.
	if r := c.Poll(); r != Cancelled {
		t.Fatalf("pre-cancelled context: Poll = %v, want Cancelled", r)
	}
}

func TestMaterializeTimeout(t *testing.T) {
	b := Budget{Timeout: time.Hour}
	m := b.Materialize()
	if m.Timeout != 0 {
		t.Fatal("Materialize must clear Timeout")
	}
	if m.Deadline.IsZero() || time.Until(m.Deadline) > time.Hour {
		t.Fatalf("bad materialized deadline %v", m.Deadline)
	}
	// Idempotent: a second Materialize leaves the deadline alone.
	m2 := m.Materialize()
	if !m2.Deadline.Equal(m.Deadline) {
		t.Fatal("Materialize not idempotent")
	}
	// Keeps the earlier of explicit deadline vs timeout.
	early := time.Now().Add(time.Minute)
	b = Budget{Timeout: time.Hour, Deadline: early}
	if got := b.Materialize().Deadline; !got.Equal(early) {
		t.Fatalf("kept %v, want the earlier %v", got, early)
	}
}

func TestMergeCaps(t *testing.T) {
	for _, tc := range []struct{ a, b, want uint64 }{
		{7, 0, 7}, {7, 3, 3}, {7, 100, 7}, {0, 5, 5}, {0, 0, 0},
	} {
		if got := mergeCap(tc.a, tc.b); got != tc.want {
			t.Fatalf("mergeCap(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestReasonStrings(t *testing.T) {
	for r, want := range map[Reason]string{
		None: "none", Cancelled: "cancelled", Deadline: "deadline",
		Conflicts: "conflict-limit", Decisions: "decision-limit",
		Cubes: "cube-limit", Nodes: "bdd-node-limit",
	} {
		if r.String() != want {
			t.Fatalf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
}

func TestDeadlineTripsViaPoll(t *testing.T) {
	c := Budget{Deadline: time.Now().Add(5 * time.Millisecond)}.Start()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if c.Poll() == Deadline {
			return
		}
	}
	t.Fatal("deadline never tripped through amortized polling")
}
