// Package budget defines the resource-governance contract shared by every
// engine in the repository: a Budget bundles the limits a caller is
// willing to spend — wall-clock deadline, context cancellation, and
// counter caps on conflicts, decisions, cubes, and BDD nodes — and a
// Checker polls the time-based limits cheaply from engine hot loops.
//
// The contract every engine honors:
//
//   - A zero Budget imposes no limits; enumeration runs to completion.
//   - When any limit trips, the engine stops promptly, keeps whatever
//     partial answer it has (always a sound under-approximation of the
//     full result), and reports Aborted together with the Reason.
//   - Truncation is never silent: the Aborted flag propagates through
//     every layer up to the facade and the CLIs.
package budget

import (
	"context"
	"time"
)

// Reason says which limit stopped an engine early. None means the run
// completed (or is still running).
type Reason int

// Stop reasons, in rough priority order when several trip at once.
const (
	None Reason = iota
	// Cancelled: the budget's context was cancelled.
	Cancelled
	// Deadline: the wall-clock deadline passed.
	Deadline
	// Conflicts: the SAT conflict cap was reached.
	Conflicts
	// Decisions: the enumeration decision cap was reached.
	Decisions
	// Cubes: the enumerated-cube cap was reached.
	Cubes
	// Nodes: the BDD node cap was reached.
	Nodes
)

func (r Reason) String() string {
	switch r {
	case None:
		return "none"
	case Cancelled:
		return "cancelled"
	case Deadline:
		return "deadline"
	case Conflicts:
		return "conflict-limit"
	case Decisions:
		return "decision-limit"
	case Cubes:
		return "cube-limit"
	case Nodes:
		return "bdd-node-limit"
	default:
		return "reason(?)"
	}
}

// Budget bounds one computation. The zero value means "unlimited".
// Budgets are plain values: copy freely, pass down by value.
type Budget struct {
	// Ctx, when non-nil, cancels the computation when done.
	Ctx context.Context
	// Deadline, when non-zero, is the absolute wall-clock stop time.
	Deadline time.Time
	// Timeout, when positive, is a relative deadline. It is resolved into
	// Deadline exactly once, by Materialize, at the outermost entry point
	// — so nested engine calls share one clock instead of each restarting
	// the timeout.
	Timeout time.Duration
	// MaxConflicts caps the total SAT conflicts of the run (0 = unlimited).
	MaxConflicts uint64
	// MaxDecisions caps enumeration decisions (0 = unlimited).
	MaxDecisions uint64
	// MaxCubes caps the number of enumerated cubes (0 = unlimited).
	MaxCubes uint64
	// MaxBDDNodes caps the engine BDD manager size (0 = unlimited).
	MaxBDDNodes int
}

// IsZero reports whether the budget imposes no limits at all.
func (b Budget) IsZero() bool {
	return b.Ctx == nil && b.Deadline.IsZero() && b.Timeout == 0 &&
		b.MaxConflicts == 0 && b.MaxDecisions == 0 && b.MaxCubes == 0 &&
		b.MaxBDDNodes == 0
}

// Materialize resolves a relative Timeout into an absolute Deadline
// (keeping the earlier of the two when both are set) and returns the
// updated budget. Call it once at the top-level entry of a computation;
// it is idempotent afterwards.
func (b Budget) Materialize() Budget {
	if b.Timeout > 0 {
		d := time.Now().Add(b.Timeout)
		if b.Deadline.IsZero() || d.Before(b.Deadline) {
			b.Deadline = d
		}
		b.Timeout = 0
	}
	return b
}

// mergeCap returns the tighter of two caps, where 0 means unlimited.
func mergeCap(a, b uint64) uint64 {
	switch {
	case a == 0:
		return b
	case b == 0:
		return a
	case a < b:
		return a
	default:
		return b
	}
}

// pollPeriod is how many Poll calls elapse between real time/context
// checks; a power of two so the modulo is a mask.
const pollPeriod = 256

// Checker polls a budget's time and cancellation limits with an
// amortized cost of a counter increment per call. It is not safe for
// concurrent use; give each goroutine its own checker via Start.
type Checker struct {
	done     <-chan struct{}
	deadline time.Time
	tick     uint32
	reason   Reason
	inactive bool // no time/context limits: Poll is a constant None
}

// Start builds a checker for the budget's deadline and context. The
// counter caps (conflicts, decisions, cubes, nodes) are the engine's own
// responsibility — they are already counted in its hot loop. Start
// performs one immediate check, so an already-expired deadline or
// already-cancelled context trips on the first Poll.
func (b Budget) Start() *Checker {
	c := &Checker{deadline: b.Deadline}
	if b.Ctx != nil {
		c.done = b.Ctx.Done()
	}
	if c.done == nil && c.deadline.IsZero() {
		c.inactive = true
		return c
	}
	c.check()
	return c
}

// Poll returns the stop reason, or None while the budget holds. Real
// checks run every pollPeriod calls; once tripped, the reason is sticky
// and every subsequent call returns it immediately.
func (c *Checker) Poll() Reason {
	if c.reason != None || c.inactive {
		return c.reason
	}
	c.tick++
	if c.tick&(pollPeriod-1) != 0 {
		return None
	}
	return c.check()
}

// Now performs an immediate (non-amortized) check.
func (c *Checker) Now() Reason {
	if c.reason != None || c.inactive {
		return c.reason
	}
	return c.check()
}

func (c *Checker) check() Reason {
	if c.done != nil {
		select {
		case <-c.done:
			c.reason = Cancelled
			return c.reason
		default:
		}
	}
	if !c.deadline.IsZero() && !time.Now().Before(c.deadline) {
		c.reason = Deadline
	}
	return c.reason
}
