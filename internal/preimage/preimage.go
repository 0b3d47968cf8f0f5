// Package preimage computes preimages of state sets of sequential
// circuits — the set of present states (optionally with input witnesses)
// from which one transition reaches a given target set — and iterates them
// into full backward reachability.
//
// Five interchangeable engines are provided:
//
//   - EngineSuccessDriven (default): the paper's all-solutions SAT
//     enumerator (internal/core), returning the preimage directly as an
//     ROBDD-backed cube cover.
//   - EngineBlocking: classical all-SAT with full-minterm blocking
//     clauses (the paper's SAT baseline).
//   - EngineLifting: all-SAT with greedily lifted (shortened) blocking
//     clauses.
//   - EngineDisjoint: blocking-clause-free disjoint enumeration via
//     chronological backtracking with early emission — pairwise
//     disjoint cubes, O(1) clause growth per solution.
//   - EngineBDD: symbolic relational product with partitioned transition
//     relations and early quantification (the paper's BDD baseline).
//
// All engines return covers over the canonical state space (position k =
// latch k in declaration order), so results are directly comparable.
//
// Compute, Image and the unrolled KStepPreimage differ only in the
// instance they build: each hands its formula, its projection space and
// the projection position of every latch to one SAT run (satRun), which
// simplifies, enumerates, projects the cubes onto the latches and counts
// the states. The BDD engine computes the same sets symbolically.
package preimage

import (
	"fmt"
	"math/big"
	"time"

	"allsatpre/internal/allsat"
	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cnf"
	"allsatpre/internal/core"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	"allsatpre/internal/pool"
	rt "allsatpre/internal/runtime"
	"allsatpre/internal/simplify"
	"allsatpre/internal/stats"
	"allsatpre/internal/trans"
)

// Engine selects the preimage computation strategy.
type Engine int

// Available engines.
const (
	EngineSuccessDriven Engine = iota
	EngineBlocking
	EngineLifting
	EngineBDD
	EngineDisjoint
)

func (e Engine) String() string {
	switch e {
	case EngineSuccessDriven:
		return "success-driven"
	case EngineBlocking:
		return "blocking"
	case EngineLifting:
		return "lifting"
	case EngineBDD:
		return "bdd"
	case EngineDisjoint:
		return "disjoint"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// CubeEngine maps a blocking, lifting or disjoint engine onto its allsat
// cube stream; ok is false for the success-driven and BDD engines.
func (e Engine) CubeEngine() (eng allsat.Engine, ok bool) {
	switch e {
	case EngineBlocking:
		return allsat.Blocking, true
	case EngineLifting:
		return allsat.Lifting, true
	case EngineDisjoint:
		return allsat.Disjoint, true
	}
	return 0, false
}

// Options configures a preimage computation.
type Options struct {
	// Engine selects the strategy (default EngineSuccessDriven).
	Engine Engine
	// WithInputs also reports the input assignments: Compute's SAT
	// engines then keep their (state, input) cubes as Result.Pairs.
	// It also selects the search projection of the blocking, lifting
	// and disjoint engines, and of the success-driven engine's fresh
	// backward walk layers (Reach, CheckReachable): with it they
	// enumerate (state, input) cubes, without it state cubes only. The
	// success-driven Compute always searches over (state, input);
	// Image, KStepPreimage and incremental sessions ignore it.
	WithInputs bool
	// Core selects the success-driven enumerator's memo and learning
	// switches; with neither set, both are on (core.DefaultOptions). Only
	// EnableMemo and EnableLearning are read; the run's limits come from
	// Budget.
	Core core.Options
	// InputFirstOrder makes the SAT engines decide input variables before
	// state variables (the default is state-first) — the decision-order
	// ablation. It applies to runs that search over (state, input): the
	// success-driven Compute, and the other SAT engines and the fresh
	// walk layers with WithInputs.
	InputFirstOrder bool
	// Interleave uses an s,x-interleaved order (ablation; as
	// InputFirstOrder, only where the search covers the inputs).
	Interleave bool
	// BDDSegregatedOrder makes the BDD engine place all present-state
	// variables before all next-state variables instead of interleaving
	// the (s_k, s'_k) pairs — the ordering ablation for Table 5.
	BDDSegregatedOrder bool
	// Simplify controls the full projection-safe preprocessing pass
	// (internal/simplify: bounded variable elimination, subsumption,
	// self-subsuming resolution, failed-literal probing) over the
	// instance CNF before a SAT engine runs, with the projection
	// variables frozen. The enumerated cover is identical with or
	// without it — the pass preserves the projected solution set
	// exactly. Auto resolves to on for every SAT run, fresh or
	// incremental; the BDD engine has no CNF and ignores it. An
	// incremental session simplifies its base transition CNF once, with
	// the state and next-state variables frozen, since it retargets the
	// clause database in place (see Options.Incremental).
	Simplify simplify.Mode
	// Parallel, when > 1, computes the preimage with that many workers.
	// The success-driven engine partitions the projection space into
	// guiding-path subcubes run as scheduler jobs by internal/pool,
	// whose merged BDD — and therefore ISOP cover — is bit-identical to
	// the sequential run; the blocking, lifting and disjoint engines
	// fan guiding-path subcubes over per-subcube solvers
	// (allsat.Options.Workers). The BDD engine ignores it: its one
	// relational product runs on one manager, so its cover, count and
	// node count are the same at every worker count. All engines return
	// the same solution set as the sequential run for every worker
	// count.
	Parallel int
	// Incremental selects the layer source of the frontier walk behind
	// the iterated entry points (Reach, ForwardReach, KStepPreimage and
	// CheckReachable's backward sweep): one persistent solver session
	// and one shared BDD manager across steps (internal/incr) instead of
	// a fresh Compute or Image per layer. The circuit is encoded once,
	// each step's target is gated on a fresh activation literal, and
	// learned clauses plus the success-driven memo survive retargeting.
	// Like a fresh layer, a backward session searches over the latches
	// alone. Frontiers, counts, and verdicts are bit-identical to the
	// fresh source; only the resource accounting differs (budgets are
	// session-global instead of per-step, see DESIGN.md §10). It applies
	// to the success-driven engine; the other engines fall back to the
	// fresh source. Single-step Compute ignores it, and CheckReachable
	// extracts its trace on one persistent solver either way.
	Incremental bool
	// Budget imposes resource limits (deadline, context cancellation,
	// decision/conflict/cube caps, BDD node cap) on the whole computation,
	// shared by every engine it drives. A relative Timeout is resolved to
	// an absolute deadline once, at the outermost entry point, so nested
	// calls (Reach steps, parallel subcube jobs) spend from one
	// allowance. When the budget trips, results come back with Aborted
	// set and a sound partial answer — never an error, never silently
	// truncated.
	Budget budget.Budget
	// Stats, when non-nil, receives hierarchical counters for the run:
	// engine totals at the root, per-step sub-registries for the
	// reachability loops. Safe for concurrent use; snapshot or serve it
	// while the computation is in flight.
	Stats *stats.Registry
	// Runtime, when non-nil, executes the computation on the shared
	// pooled runtime: solvers and BDD managers come warm from its
	// free-list instead of being rebuilt per request, and — when it also
	// carries a scheduler — the parallel SAT engines run their jobs on
	// the server-wide executor pool under the runtime's tenant label.
	// Results are bit-identical either way; nil means fresh construction
	// and a private scheduler for each parallel call. Incremental sessions run their multi-worker steps'
	// jobs on its scheduler too, but keep their own solvers and managers,
	// which persist across steps by design.
	Runtime *rt.Runtime
	// StateSink, when non-nil, receives each state cube of a run whose
	// state cover is final as it arrives, the moment the search finds
	// it: a blocking or disjoint run over the latches alone (no
	// WithInputs) with Parallel <= 1. Result.States then lists exactly
	// the cubes sunk, in the same order. Other runs (the lifting, success-driven and BDD
	// engines, multi-worker runs) and the frontier walks never call it.
	// It runs on the caller's goroutine and must not modify the cube; to
	// stop the search, cancel the budget's context.
	StateSink func(cube.Cube)
}

// Result is a preimage: the set of predecessor states.
type Result struct {
	// States is the preimage as a cube cover over StateSpace.
	States *cube.Cover
	// StateSpace is the canonical state space (vars 0..L-1, latch names).
	StateSpace *cube.Space
	// Count is the exact number of preimage states.
	Count *big.Int
	// Pairs, when Options.WithInputs was set on a SAT engine, is the
	// cover over (state ++ input) of all witness pairs; nil otherwise.
	Pairs *cube.Cover
	// Stats carries search counters (SAT engines) or is zero (BDD).
	// The blocking, lifting and disjoint engines count LiftedFree on
	// the widened cubes (DESIGN.md §7), so a latch the search dropped
	// counts as free in every cube.
	Stats allsat.Stats
	// BDDNodes is the peak node count of the engine's manager.
	BDDNodes int
	// Engine records which engine produced the result.
	Engine Engine
	// Aborted is true when a resource limit (cube cap, decision cap,
	// deadline, cancellation, BDD node cap) stopped the engine early.
	// States is then a sound under-approximation of the true preimage —
	// every reported state is a genuine predecessor, but some may be
	// missing. AbortReason says which limit tripped.
	Aborted     bool
	AbortReason budget.Reason
}

// StateSpace builds the canonical state space of a circuit: position k is
// latch k, variable ids are 0..L-1, names are the latch signal names.
func StateSpace(c *circuit.Circuit) *cube.Space {
	vars := make([]lit.Var, len(c.Latches))
	names := make([]string, len(c.Latches))
	for i, gi := range c.Latches {
		vars[i] = lit.Var(i)
		names[i] = c.Gates[gi].Name
	}
	return cube.NewNamedSpace(vars, names)
}

// canonicalize re-expresses a cover (position-aligned to the latch order)
// over the canonical state space.
func canonicalize(space *cube.Space, cv *cube.Cover) *cube.Cover {
	out := cube.NewCover(space)
	for _, c := range cv.Cubes() {
		out.Add(c.Clone())
	}
	return out
}

// Compute returns the one-step preimage of the target set. When the
// budget in opts trips mid-computation the result carries Aborted=true
// and a States cover that under-approximates the preimage; the error
// return is reserved for malformed inputs.
func Compute(c *circuit.Circuit, target *cube.Cover, opts Options) (*Result, error) {
	res, _, err := compute(c, target, opts, nil)
	return res, err
}

// compute is Compute for the frontier walk's fresh layer source: when
// share is non-nil it also returns the preimage as a set in share, a
// manager ordered over the canonical state space (variable k = latch k).
// The SAT engines run one satRun over projectionOrder's projection. With
// share and without WithInputs the success-driven engine, too, searches
// over the latches alone and returns the set only: Result.States and
// Count stay nil, since the walk extracts and counts its layers itself.
func compute(c *circuit.Circuit, target *cube.Cover, opts Options, share *bdd.Manager) (*Result, bdd.Ref, error) {
	opts.Budget = opts.Budget.Materialize()
	start := time.Now()
	var res *Result
	set := bdd.False
	var err error
	switch {
	case opts.Engine == EngineBDD:
		res, err = computeBDD(c, target, opts)
	default:
		var inst *trans.Instance
		if inst, err = trans.NewInstance(c, target); err != nil {
			return nil, set, err
		}
		projVars, projNames := projectionOrder(inst, opts, share != nil)
		projSpace := cube.NewNamedSpace(projVars, projNames)
		run := satRun{f: inst.F, proj: projSpace, pos: latchPositions(inst.StateVars, projSpace), pairs: inst}
		res, set, err = run.solve(StateSpace(c), opts, share)
	}
	if err != nil {
		return nil, set, err
	}
	if share != nil && opts.Engine == EngineBDD {
		set = share.FromCover(res.States)
	}
	RecordStats(opts.Stats, res, time.Since(start))
	return res, set, nil
}

// allsatOptions derives the blocking/lifting/disjoint engine options from
// the run's budget, runtime and worker count. satRun has already
// simplified the formula, so the engines never preprocess again.
func allsatOptions(opts Options) allsat.Options {
	as := allsat.Options{Budget: opts.Budget, Simplify: simplify.Off, Runtime: opts.Runtime}
	if opts.Parallel > 1 {
		as.Workers = opts.Parallel
	}
	return as
}

// runSuccessDriven runs the success-driven engine — pooled for any worker
// count (one worker short-circuits to the plain sequential enumerator
// inside the pool) — and returns the merged BDD (manager + set). The run
// budget is enforced by the pool; its cube cap applies when the caller
// extracts a cover (core.Result.Extract), which then narrows the merged
// set to the kept cubes.
func runSuccessDriven(f *cnf.Formula, projSpace *cube.Space, opts Options) *pool.Result {
	workers := opts.Parallel
	if workers < 1 {
		workers = 1
	}
	return pool.Enumerate(f, projSpace, pool.Options{
		Workers: workers,
		Core:    coreOptions(opts),
		Budget:  opts.Budget,
		Stats:   opts.Stats,
		Runtime: opts.Runtime,
	})
}

// coreOptions is the success-driven enumerator's tuning: the memo and
// learning switches of opts.Core, both on when neither is set. The run
// budget travels separately (pool and incr options carry it).
func coreOptions(opts Options) core.Options {
	co := core.Options{EnableMemo: opts.Core.EnableMemo, EnableLearning: opts.Core.EnableLearning}
	if co.IsZero() {
		return core.DefaultOptions()
	}
	return co
}

// RecordStats publishes a result's counters into the run registry. It
// owns the counter names of every -stats block and run registry: the
// preimage entry points, the walks' layers and the DIMACS facade all
// publish through it.
func RecordStats(reg *stats.Registry, r *Result, elapsed time.Duration) {
	if reg == nil || r == nil {
		return
	}
	reg.Counter("decisions").Add(r.Stats.Decisions)
	reg.Counter("propagations").Add(r.Stats.Propagations)
	reg.Counter("conflicts").Add(r.Stats.Conflicts)
	reg.Counter("solutions").Add(r.Stats.Solutions)
	reg.Counter("cubes").Add(r.Stats.Cubes)
	reg.Counter("cache-lookups").Add(r.Stats.CacheLookups)
	reg.Counter("cache-hits").Add(r.Stats.CacheHits)
	reg.Counter("cache-clears").Add(r.Stats.CacheClears)
	reg.MaxGauge("bdd-nodes", int64(r.BDDNodes))
	if r.Stats.ArenaBytes > 0 || r.Stats.PeakLearnts > 0 {
		// Clause-arena residency of the CDCL solvers (summed across
		// parallel workers at capture time). The per-tier gauges snapshot
		// the tiered learnt DB: core is permanent, tier2 demotes on
		// disuse, local churns under reduction.
		reg.MaxGauge("sat.arena-bytes", int64(r.Stats.ArenaBytes))
		reg.MaxGauge("sat.peak-learnts", int64(r.Stats.PeakLearnts))
		reg.MaxGauge("sat.peak-learnt-bytes", int64(r.Stats.PeakLearntBytes))
		reg.SetGauge("sat.learnts-core", int64(r.Stats.LearntsCore))
		reg.SetGauge("sat.learnts-tier2", int64(r.Stats.LearntsTier2))
		reg.SetGauge("sat.learnts-local", int64(r.Stats.LearntsLocal))
	}
	if k := r.Stats.Kernel; k.UniqueLookups > 0 || k.CacheLookups > 0 {
		reg.Counter("kernel-unique-lookups").Add(k.UniqueLookups)
		reg.Counter("kernel-unique-probes").Add(k.UniqueProbes)
		reg.Counter("kernel-rehashes").Add(k.Rehashes)
		reg.Counter("kernel-cache-lookups").Add(k.CacheLookups)
		reg.Counter("kernel-cache-hits").Add(k.CacheHits)
		reg.Counter("kernel-cache-evictions").Add(k.CacheEvictions)
		reg.MaxGauge("kernel-unique-cap", int64(k.UniqueCap))
		reg.MaxGauge("kernel-cache-cap", int64(k.CacheCap))
		reg.MaxGauge("kernel-cache-size", int64(k.CacheSize))
		reg.SetFloatGauge("kernel-load-factor", k.LoadFactor())
		reg.SetFloatGauge("kernel-avg-probes", k.AvgProbes())
	}
	if sp := r.Stats.Simplify; sp.Applied {
		reg.Counter("simplify-runs").Inc()
		reg.Counter("simplify-vars-eliminated").Add(uint64(sp.VarsEliminated))
		reg.Counter("simplify-units-fixed").Add(uint64(sp.UnitsFixed))
		reg.Counter("simplify-clauses-subsumed").Add(uint64(sp.ClausesSubsumed))
		reg.Counter("simplify-lits-strengthened").Add(uint64(sp.LitsStrengthened))
		reg.Counter("simplify-resolvents-added").Add(uint64(sp.ResolventsAdded))
		reg.Counter("simplify-probes").Add(uint64(sp.Probes))
		reg.Counter("simplify-probe-failures").Add(uint64(sp.ProbeFailures))
		if sp.ClausesAfter < sp.ClausesBefore {
			reg.Counter("simplify-clauses-removed").Add(uint64(sp.ClausesBefore - sp.ClausesAfter))
		}
	}
	reg.AddDuration("time", elapsed)
	if r.Aborted {
		reg.Counter("aborts").Inc()
		reg.Counter("abort-" + r.AbortReason.String()).Inc()
	}
}

// projectionOrder builds the decision/projection variable order for the
// SAT engines from the instance. Without WithInputs, the blocking,
// lifting and disjoint engines, and the success-driven engine of a walk
// layer (layer: the run hands its state set to a walk's manager), decide
// only the preimage's own variables, the latches in declaration order:
// Pre(N)(s) = ∃x. T(s,x,s′) ∧ N(s′) needs no input witness, and a
// projected enumeration never branches on x. Every other run projects
// onto (state, input) in the order the ablation options ask for.
func projectionOrder(inst *trans.Instance, opts Options, layer bool) ([]lit.Var, []string) {
	if _, cubes := opts.Engine.CubeEngine(); (cubes || layer) && !opts.WithInputs {
		names := make([]string, len(inst.StateVars))
		for i := range names {
			names[i] = inst.StateSpace.Name(i)
		}
		return inst.StateVars, names
	}
	return inst.OrderedProjection(opts.InputFirstOrder, opts.Interleave)
}
