// Package runtime provides the execution substrate beneath the engines
// and the enumeration service: a free-list of warm sat.Solver /
// bdd.Manager instances whose backing arrays survive across requests
// (Reset instead of reconstruction); a fair-share Scheduler that runs
// jobs from all in-flight requests on one fixed executor pool; and
// Group, through which every parallel fan-out runs its jobs — on the
// caller's shared scheduler, or on a private one that lives for the
// call when the caller has none (a nil Runtime).
//
// The package sits below internal/allsat, internal/core, internal/pool,
// and internal/preimage (all of which accept an optional *Runtime) and
// internal/bmc, and above only the leaf packages (sat, bdd, budget, stats) — it must never
// import an engine package, or the dependency cycle with internal/pool
// returns.
package runtime

import (
	"math/bits"
	"sync"

	"allsatpre/internal/bdd"
	"allsatpre/internal/lit"
	"allsatpre/internal/sat"
	"allsatpre/internal/stats"
)

// DefaultMaxBytes is the pool-wide retained-byte ceiling: the sum of
// RetainedBytes over every parked solver and manager stays under it,
// largest entries trimmed first. Sized for a service host; tune with
// PoolOptions.MaxBytes (cmd/serve: -pool-bytes).
const DefaultMaxBytes = 256 << 20

// numClasses is the number of power-of-two size classes. Class k holds
// objects with RetainedBytes in [2^k, 2^(k+1)); 40 classes cover every
// realistic object (1 TiB).
const numClasses = 40

// PoolOptions configures a warm-object pool.
type PoolOptions struct {
	// MaxBytes caps the total retained bytes across parked objects
	// (0 = DefaultMaxBytes, negative = unlimited).
	MaxBytes int64
	// Stats, when non-nil, receives the runtime.* pool counters.
	Stats *stats.Registry
}

// Pool is a size-classed free-list of warm solvers and managers. All
// methods are safe for concurrent use, and all methods are no-ops /
// fresh-construction fallbacks on a nil receiver, so callers thread an
// optional *Pool without nil checks.
type Pool struct {
	mu       sync.Mutex
	solvers  [numClasses][]*sat.Solver
	managers [numClasses][]*bdd.Manager
	bytes    int64 // retained bytes across both free-lists
	maxBytes int64

	reg *stats.Registry
	// Cached counter handles: acquire/release are per-request hot paths
	// and must not pay the registry's name lookup each time.
	cSolverHit, cSolverMiss   *stats.Counter
	cManagerHit, cManagerMiss *stats.Counter
	cTrims                    *stats.Counter
}

// NewPool creates a warm-object pool.
func NewPool(opts PoolOptions) *Pool {
	p := &Pool{maxBytes: opts.MaxBytes, reg: opts.Stats}
	if p.maxBytes == 0 {
		p.maxBytes = DefaultMaxBytes
	}
	if p.reg != nil {
		p.cSolverHit = p.reg.Counter("runtime.solver-hits")
		p.cSolverMiss = p.reg.Counter("runtime.solver-misses")
		p.cManagerHit = p.reg.Counter("runtime.manager-hits")
		p.cManagerMiss = p.reg.Counter("runtime.manager-misses")
		p.cTrims = p.reg.Counter("runtime.trims")
	}
	return p
}

// sizeClass maps a retained-byte figure to its power-of-two class.
func sizeClass(b uint64) int {
	c := bits.Len64(b)
	if c >= numClasses {
		c = numClasses - 1
	}
	return c
}

// AcquireSolver returns a warm solver Reset to the state sat.New(opts)
// produces, or a fresh one on a pool miss. hintBytes estimates the
// problem footprint so the match starts at the right size class (0 is
// fine: any warm solver beats a cold one, the search covers all
// classes).
func (p *Pool) AcquireSolver(opts sat.Options, hintBytes uint64) *sat.Solver {
	if p == nil {
		return sat.New(opts)
	}
	p.mu.Lock()
	var s *sat.Solver
	if c := p.pickClass(hintBytes, func(c int) bool { return len(p.solvers[c]) > 0 }); c >= 0 {
		n := len(p.solvers[c]) - 1
		s = p.solvers[c][n]
		p.solvers[c][n] = nil
		p.solvers[c] = p.solvers[c][:n]
		p.bytes -= int64(s.RetainedBytes())
	}
	p.mu.Unlock()
	if s == nil {
		p.count(p.cSolverMiss)
		return sat.New(opts)
	}
	p.count(p.cSolverHit)
	s.Reset(opts)
	p.gauge()
	return s
}

// ReleaseSolver parks a solver for reuse. The solver must not be used by
// the caller afterwards. Nil receivers and nil solvers are no-ops.
func (p *Pool) ReleaseSolver(s *sat.Solver) {
	if p == nil || s == nil {
		return
	}
	b := s.RetainedBytes()
	p.mu.Lock()
	c := sizeClass(b)
	p.solvers[c] = append(p.solvers[c], s)
	p.bytes += int64(b)
	p.trimLocked()
	p.mu.Unlock()
	p.gauge()
}

// AcquireManager returns a warm manager Reset over the given variable
// order, or a fresh bdd.NewOrdered on a miss.
func (p *Pool) AcquireManager(order []lit.Var, hintBytes uint64) *bdd.Manager {
	if p == nil {
		return bdd.NewOrdered(order)
	}
	p.mu.Lock()
	var m *bdd.Manager
	if c := p.pickClass(hintBytes, func(c int) bool { return len(p.managers[c]) > 0 }); c >= 0 {
		n := len(p.managers[c]) - 1
		m = p.managers[c][n]
		p.managers[c][n] = nil
		p.managers[c] = p.managers[c][:n]
		p.bytes -= int64(m.RetainedBytes())
	}
	p.mu.Unlock()
	if m == nil {
		p.count(p.cManagerMiss)
		return bdd.NewOrdered(order)
	}
	p.count(p.cManagerHit)
	m.Reset(order)
	p.gauge()
	return m
}

// ReleaseManager parks a manager for reuse. The manager — and every Ref
// obtained from it — must not be used by the caller afterwards.
func (p *Pool) ReleaseManager(m *bdd.Manager) {
	if p == nil || m == nil {
		return
	}
	b := m.RetainedBytes()
	p.mu.Lock()
	c := sizeClass(b)
	p.managers[c] = append(p.managers[c], m)
	p.bytes += int64(b)
	p.trimLocked()
	p.mu.Unlock()
	p.gauge()
}

// pickClass finds the free-list class to pop from: the smallest
// populated class that can hold hintBytes (warm capacity at least in
// the right ballpark), else the largest populated class below it (a
// smaller warm object still beats a cold start — it regrows in place).
func (p *Pool) pickClass(hintBytes uint64, populated func(int) bool) int {
	start := sizeClass(hintBytes)
	for c := start; c < numClasses; c++ {
		if populated(c) {
			return c
		}
	}
	for c := start - 1; c >= 0; c-- {
		if populated(c) {
			return c
		}
	}
	return -1
}

// trimLocked enforces the byte ceiling by dropping the largest parked
// objects first (they pin the most memory per slot and are the cheapest
// to re-grow relative to their hold cost). Called with p.mu held.
func (p *Pool) trimLocked() {
	if p.maxBytes < 0 {
		return
	}
	for c := numClasses - 1; c >= 0 && p.bytes > p.maxBytes; c-- {
		for p.bytes > p.maxBytes && len(p.solvers[c]) > 0 {
			n := len(p.solvers[c]) - 1
			p.bytes -= int64(p.solvers[c][n].RetainedBytes())
			p.solvers[c][n] = nil
			p.solvers[c] = p.solvers[c][:n]
			p.count(p.cTrims)
		}
		for p.bytes > p.maxBytes && len(p.managers[c]) > 0 {
			n := len(p.managers[c]) - 1
			p.bytes -= int64(p.managers[c][n].RetainedBytes())
			p.managers[c][n] = nil
			p.managers[c] = p.managers[c][:n]
			p.count(p.cTrims)
		}
	}
}

// RetainedBytes reports the bytes currently pinned by parked objects.
func (p *Pool) RetainedBytes() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes
}

func (p *Pool) count(c *stats.Counter) {
	if c != nil {
		c.Inc()
	}
}

func (p *Pool) gauge() {
	if p.reg != nil {
		p.reg.SetGauge("runtime.bytes-retained", p.RetainedBytes())
	}
}
