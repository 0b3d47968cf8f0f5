// Package incr provides incremental reachability sessions: the circuit
// is Tseitin-encoded once, one persistent set of success-driven
// enumerators (internal/pool.Session) and one shared BDD manager stay
// alive across every reachability step, and each step's frontier cover
// is encoded under a fresh activation literal (trans.Group). A backward
// session searches over the state variables alone, a forward one over
// the next-state variables: a step's set is a state set, with no input
// to quantify out. Retiring a
// step is one unit clause plus garbage collection — learned clauses not
// mentioning the step's selector/activation variables survive into the
// next step, and the success-driven memo survives with invalidation only
// where a residual touched the retired clauses.
package incr

import (
	"errors"
	"time"

	"allsatpre/internal/allsat"
	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/core"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	"allsatpre/internal/pool"
	rt "allsatpre/internal/runtime"
	"allsatpre/internal/simplify"
	"allsatpre/internal/stats"
	"allsatpre/internal/trans"
)

// Options configures an incremental session.
type Options struct {
	// Workers is the enumeration worker count (pool.Session semantics:
	// <= 0 selects GOMAXPROCS, 1 runs in-place on the session manager).
	Workers int
	// Core tunes the enumerators (zero value → core defaults).
	Core core.Options
	// Budget bounds the whole session — every step spends from it. The
	// decision cap is enforced session-globally, unlike the fresh path's
	// per-step enumerators (a budget is a resource allowance, not a
	// semantic knob; see DESIGN.md §10). The cube cap bounds each step's
	// state cover (the ISOP of its set), as it bounds a fresh walk
	// layer's.
	Budget budget.Budget
	// Simplify runs the projection-safe preprocessing pass
	// (internal/simplify) over the base transition CNF before the
	// persistent solvers are built. The session retargets the clause
	// database in place, so the frozen set must cover everything a step
	// constrains or projects: the state and next-state variables.
	// Retarget and RetargetInit clauses touch only those plus fresh
	// activation/selector variables allocated after the pass, so they
	// can never be eliminated; the inputs, which no step mentions, may
	// be.
	Simplify bool
	// Stats, when non-nil, receives the incr.* counters.
	Stats *stats.Registry
	// Runtime, when it carries a scheduler, runs the steps' subcube jobs
	// on it under the runtime's tenant (pool.Options.Runtime); nil gives
	// each step a private scheduler.
	Runtime *rt.Runtime
}

// StepResult is the outcome of one Step call.
type StepResult struct {
	// Set is this step's solution set over the projection variables, in
	// the session manager.
	Set bdd.Ref
	// Stats are this step's search-counter deltas.
	Stats allsat.Stats
	// Pool is this step's pool bookkeeping.
	Pool pool.PoolStats
	// Retire reports the retirement of the previous step's clause group
	// (zero for the first step).
	Retire pool.SessionRetireStats
	// ClausesAdded is the number of gated clauses encoding this target.
	ClausesAdded int
	// Aborted/Reason report a budget trip; Set is then a sound
	// under-approximation.
	Aborted bool
	Reason  budget.Reason
}

// ErrClosed is returned by Step after Close: a closed session's solver
// pool is cancelled and its retarget state is gone, so no further
// frontier can be advanced.
var ErrClosed = errors.New("incr: session is closed")

// Session is a persistent solver + manager serving a sequence of
// reachability steps.
//
// Concurrency contract: a Session is NOT safe for concurrent use —
// callers serialize every method, including Close. A store that owns
// sessions on behalf of multiple clients (e.g. internal/server's LRU
// session store) must hold a per-session lock across each Step and
// across the eviction Close, so an in-flight step always finishes or
// aborts before the session's resources are torn down.
type Session struct {
	inst     *trans.Instance
	ps       *pool.Session
	backward bool
	closed   bool

	projSpace *cube.Space // StateSpace (backward) / NextVars (forward), CNF var ids

	cur        *trans.Group // open step's gated group, nil before first Step
	maxCubes   uint64       // Budget.MaxCubes, applied per step
	steps      int
	encodeTime time.Duration
	reg        *stats.Registry
}

// NewBackward opens a backward-reachability session: Open with forward
// unset.
func NewBackward(c *circuit.Circuit, opts Options) (*Session, error) {
	return Open(c, false, opts)
}

// Open opens a session in either direction. A backward session's
// Step(cover) enumerates the one-step preimage of the cover over the
// instance's state space, the latches in declaration order, as in a
// fresh walk layer, so covers and counts are directly comparable. A
// forward session's Step(cover) enumerates the image of the cover over
// the next-state variables, one per latch in declaration order
// (trans.NewForwardBaseInstance), so its sets are state sets too.
func Open(c *circuit.Circuit, forward bool, opts Options) (*Session, error) {
	t0 := time.Now()
	base := trans.NewBaseInstance
	if forward {
		base = trans.NewForwardBaseInstance
	}
	inst, err := base(c)
	if err != nil {
		return nil, err
	}
	simplifyBase(inst, opts)
	s := &Session{
		inst:       inst,
		backward:   !forward,
		projSpace:  inst.StateSpace,
		maxCubes:   opts.Budget.MaxCubes,
		encodeTime: time.Since(t0),
		reg:        opts.Stats,
	}
	if forward {
		s.projSpace = cube.NewSpace(inst.NextVars)
	}
	s.ps = newPoolSession(inst, s.projSpace, opts)
	return s, nil
}

// simplifyBase preprocesses the session's base CNF in place (it is a
// private clone, see trans.NewBaseInstance) when the caller opted in,
// freezing every variable a step may constrain or project. The
// preprocessing cost is folded into the session's encode time — it is
// paid once and amortized over every step, like the encoding itself.
func simplifyBase(inst *trans.Instance, opts Options) {
	if !opts.Simplify {
		return
	}
	res := simplify.RunFrozen(inst.F, inst.StateVars, inst.NextVars)
	if reg := opts.Stats; reg != nil && res.Stats.Applied {
		reg.Counter("incr.simplify-vars-eliminated").Add(uint64(res.Stats.VarsEliminated))
		reg.Counter("incr.simplify-clauses-subsumed").Add(uint64(res.Stats.ClausesSubsumed))
		reg.Counter("incr.simplify-lits-strengthened").Add(uint64(res.Stats.LitsStrengthened))
		reg.Counter("incr.simplify-resolvents-added").Add(uint64(res.Stats.ResolventsAdded))
		reg.Counter("incr.simplify-probe-failures").Add(uint64(res.Stats.ProbeFailures))
	}
}

func newPoolSession(inst *trans.Instance, space *cube.Space, opts Options) *pool.Session {
	co := opts.Core
	if co.IsZero() {
		co = core.DefaultOptions()
	}
	return pool.NewSession(inst.F, space, pool.Options{
		Workers: opts.Workers,
		Core:    co,
		Budget:  opts.Budget,
		Stats:   opts.Stats,
		Runtime: opts.Runtime,
	})
}

// Close releases the session's resources: the worker pool's context is
// cancelled (stopping any budget-polling solver work), the open step's
// retarget state is dropped, and the solver/BDD state becomes
// unreachable as soon as the caller drops its Session reference. Close
// is idempotent; Step after Close returns ErrClosed. Like every other
// method it must be externally serialized (see the type comment) — it
// is the eviction hook an LRU session store calls once no step is in
// flight.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.cur = nil
	s.ps.Close()
}

// Closed reports whether Close has been called.
func (s *Session) Closed() bool { return s.closed }

// Manager is the persistent BDD manager step sets live in.
func (s *Session) Manager() *bdd.Manager { return s.ps.Manager() }

// ProjSpace is the projection space of Step sets (CNF variable ids).
func (s *Session) ProjSpace() *cube.Space { return s.projSpace }

// StateSpace is the instance's state space (CNF variable ids, latch
// names), the space frontier ISOPs are extracted over.
func (s *Session) StateSpace() *cube.Space { return s.inst.StateSpace }

// StateVars are the projection variables a state set ranges over.
func (s *Session) StateVars() []lit.Var { return s.projSpace.Vars() }

// Instance exposes the underlying base instance.
func (s *Session) Instance() *trans.Instance { return s.inst }

// Workers reports the effective worker count.
func (s *Session) Workers() int { return s.ps.Workers() }

// Step retires the previous target (if any) and enumerates the current
// one. The cover must be position-aligned to the latch order; any space
// of the right width is accepted (RetargetCover semantics).
func (s *Session) Step(cover *cube.Cover) (*StepResult, error) {
	if s.closed {
		return nil, ErrClosed
	}
	out := &StepResult{}
	if s.cur != nil {
		out.Retire = s.ps.RetireGroup(s.cur.Act.Not(), s.cur.Vars)
		s.cur = nil
	}
	var st *trans.Group
	var err error
	if s.backward {
		st, err = s.inst.Retarget(cover, s.ps.NewVar)
	} else {
		st, err = s.inst.RetargetInit(cover, s.ps.NewVar)
	}
	if err != nil {
		return nil, err
	}
	s.ps.BeginGroup()
	ok := true
	for _, cl := range st.Clauses {
		ok = s.ps.AddGroupClause(cl...) && ok
	}
	s.cur = st
	out.ClausesAdded = len(st.Clauses)
	if !ok {
		// The base formula went UNSAT at the root — only possible when
		// the circuit CNF itself is inconsistent; report an empty step.
		out.Set = bdd.False
	} else {
		r := s.ps.Run([]lit.Lit{st.Act})
		if s.maxCubes > 0 {
			r.Extract(s.projSpace, s.maxCubes) // narrows r.Set to the kept cubes
		}
		out.Set = r.Set
		out.Stats = r.Stats
		out.Pool = r.Pool
		out.Aborted = r.Aborted
		out.Reason = r.Reason
	}
	s.steps++
	s.publish(out)
	return out, nil
}

// StateSet returns a Step set as a state set: the set itself, since
// both directions search over state variables only.
func (s *Session) StateSet(set bdd.Ref) bdd.Ref { return set }

// publish mirrors the per-step bookkeeping into the stats registry under
// the incr.* keys.
func (s *Session) publish(r *StepResult) {
	reg := s.reg
	if reg == nil {
		return
	}
	reg.Counter("incr.steps").Inc()
	reg.Counter("incr.clauses-added").Add(uint64(r.ClausesAdded))
	reg.Counter("incr.clauses-retired").Add(uint64(r.Retire.OrigRetired))
	reg.Counter("incr.learned-dropped").Add(uint64(r.Retire.LearnedDropped))
	reg.Counter("incr.act-vars-retired").Add(uint64(r.Retire.VarsRetired))
	reg.Counter("incr.memo-invalidated").Add(uint64(r.Retire.MemoInvalidated))
	reg.SetGauge("incr.learned-kept", int64(r.Retire.LearnedKept))
	reg.SetGauge("incr.learned-live", int64(s.ps.LearnedCount()))
	reg.SetGauge("incr.memo-size", int64(s.ps.MemoSize()))
	if s.steps > 1 {
		// Every step after the first reuses the one-time encoding the
		// fresh path would redo: credit its cost as time saved.
		reg.AddDuration("incr.encode-saved", s.encodeTime)
	}
}
