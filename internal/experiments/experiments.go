// Package experiments regenerates every table and figure of the
// evaluation (see DESIGN.md §4 for the per-experiment index). Each
// function runs one experiment and returns both the rendered table and
// the raw measurements, so cmd/experiments can print them and the root
// benchmarks can assert on their shapes.
//
// The original paper's ISCAS-89 workloads are replaced by the seeded
// synthetic suite in internal/gen (see the substitution note in
// DESIGN.md); timings are wall-clock on the host, so the comparisons to
// report are ratios and orderings, not absolute numbers.
package experiments

import (
	"fmt"
	"math/big"
	"time"

	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cube"
	"allsatpre/internal/gen"
	"allsatpre/internal/preimage"
	"allsatpre/internal/simplify"
	"allsatpre/internal/stats"
	"allsatpre/internal/trans"
)

// Row is one measurement of one engine on one workload.
type Row struct {
	Circuit   string
	Engine    preimage.Engine
	Time      time.Duration
	Count     *big.Int // preimage states (or reach total)
	Cubes     uint64
	Solutions uint64
	Decisions uint64
	Conflicts uint64
	CacheHit  float64 // success-driven cache hit rate
	BDDNodes  int
	AvgFree   float64 // average free vars per cube (lifting/Fig3)
	AvgBlock  float64 // average blocking clause length
	Steps     int     // reach steps (Table 3)
	Extra     float64 // experiment-specific x-axis value (Fig 1/2 sweeps)
	// PeakClauses is the engine's clause-database memory proxy: blocking
	// clauses added plus the learnt-clause high-water mark (Table 7).
	PeakClauses uint64
	// PeakLearntKB is the learnt clauses' arena high-water mark in KiB.
	// Counts stopped being comparable once the learnt DB became tiered
	// (core clauses are permanent, locals churn), so Table 7 reports the
	// byte watermark next to the count.
	PeakLearntKB float64
	// Blocking is the number of blocking clauses alone — zero for the
	// disjoint and success-driven engines by construction.
	Blocking uint64
	// Aborted marks a truncated run (cube cap or RunBudget); Count is
	// then a lower bound, rendered with a TRUNCATED marker, never as a
	// complete measurement. Reason says which limit tripped.
	Aborted bool
	Reason  budget.Reason
	// SimplifyVars is the number of auxiliary variables the projection-safe
	// preprocessor eliminated (zero when the pass was off or idle).
	SimplifyVars int
}

// RunBudget, when non-zero, bounds every experiment run — set it from
// cmd/experiments' -timeout/-max-* flags so a wedged workload truncates
// loudly instead of hanging the harness.
var RunBudget budget.Budget

// RunWorkers, when > 1, runs every experiment's preimage computation
// with that many parallel enumeration workers (-workers on the CLI).
// The tables are unchanged by construction — parallel covers denote the
// same solution sets — only wall-clock moves.
var RunWorkers int

// RunIncremental, when set, makes the iterated experiments (Table 3
// reachability) reuse one solver session and BDD manager across steps
// (-incremental on the CLI). The tables are unchanged by construction —
// the incremental path produces bit-identical frontiers — only
// wall-clock moves.
var RunIncremental bool

// RunStats, when non-nil, collects per-workload counters: each run gets
// a "circuit/engine" phase beneath it.
var RunStats *stats.Registry

// RunSimplify sets the projection-safe preprocessing mode for every
// experiment run that does not pin its own (-simplify on the CLI). The
// counted covers are unchanged by construction — the pass preserves the
// projection onto the frozen state variables exactly — only wall-clock
// and the decision/conflict/cube counters move.
//
// Unlike the library and the other CLIs, the harness resolves Auto to
// OFF: the tables reproduce the paper's engines, and the DATE 2004
// solver has no preprocessor, so the historical comparisons (blocking
// caps, clause-growth peaks, cube counts) stay measured on the raw
// Tseitin CNF. The controlled preprocessing comparison lives in Table 6
// and BENCH_5.json; pass -simplify=on to re-measure any table with the
// pass applied.
var RunSimplify simplify.Mode

// resolveSimplify maps the harness default (Auto) to Off — see
// RunSimplify. An explicit -simplify=on/off wins.
func resolveSimplify() simplify.Mode {
	if RunSimplify == simplify.Auto {
		return simplify.Off
	}
	return RunSimplify
}

// truncMark annotates a count rendered into a table cell when the row
// was truncated: the measurement is a lower bound, not the answer.
func truncMark(count string, row Row) string {
	if !row.Aborted {
		return count
	}
	return ">" + count + " TRUNCATED(" + row.Reason.String() + ")"
}

// BlockingCubeCap bounds the blocking/lifting baselines in the harness.
// On the largest workloads classical blocking needs minutes (its blowup is
// the paper's motivation); capped rows are reported as aborted, the way
// papers mark timeouts, so the harness stays interactive.
const BlockingCubeCap = 5000

// targetFor builds the standard experiment target for a circuit: the cube
// around a state that is provably producible in one step (obtained by
// simulating one transition from a deterministic seed state), with every
// third position freed. This guarantees a non-empty preimage on every
// workload — a random pattern would leave the random-logic circuits with
// empty, uninformative rows — while still being a proper subset of the
// state space.
func targetFor(c *circuit.Circuit) *cube.Cover {
	n := len(c.Latches)
	sim, err := circuit.NewSimulator(c)
	if err != nil {
		panic(err)
	}
	st := make([]bool, n)
	in := make([]bool, len(c.Inputs))
	h := uint32(2166136261)
	for _, ch := range c.Name {
		h = (h ^ uint32(ch)) * 16777619
	}
	for i := range st {
		h = h*1664525 + 1013904223
		st[i] = h>>16&1 == 1
	}
	for i := range in {
		h = h*1664525 + 1013904223
		in[i] = h>>16&1 == 1
	}
	_, next := sim.Step(st, in)
	pat := make([]byte, n)
	fixed := 0
	for i := range pat {
		if i%5 == 4 {
			pat[i] = 'X'
			continue
		}
		if next[i] {
			pat[i] = '1'
		} else {
			pat[i] = '0'
		}
		fixed++
	}
	if fixed == 0 {
		if next[0] {
			pat[0] = '1'
		} else {
			pat[0] = '0'
		}
	}
	return trans.TargetFromPatterns(n, string(pat))
}

func run(c *circuit.Circuit, target *cube.Cover, opts preimage.Options) Row {
	if opts.Budget.IsZero() {
		opts.Budget = RunBudget
	}
	switch opts.Engine {
	case preimage.EngineBlocking, preimage.EngineLifting:
		if opts.Budget.MaxCubes == 0 || opts.Budget.MaxCubes > BlockingCubeCap {
			opts.Budget.MaxCubes = BlockingCubeCap
		}
	}
	if opts.Parallel == 0 && RunWorkers > 1 {
		opts.Parallel = RunWorkers
	}
	if opts.Stats == nil && RunStats != nil {
		opts.Stats = RunStats.Phase(c.Name + "/" + opts.Engine.String())
	}
	if opts.Simplify == simplify.Auto {
		opts.Simplify = resolveSimplify()
	}
	t := stats.StartTimer()
	r, err := preimage.Compute(c, target, opts)
	if err != nil {
		panic(err) // experiment circuits are well-formed by construction
	}
	row := Row{
		Circuit:   c.Name,
		Engine:    opts.Engine,
		Time:      t.Elapsed(),
		Count:     r.Count,
		Cubes:     r.Stats.Cubes,
		Solutions: r.Stats.Solutions,
		Decisions: r.Stats.Decisions,
		Conflicts: r.Stats.Conflicts,
		BDDNodes:  r.BDDNodes,
		Aborted:   r.Aborted,
		Reason:    r.AbortReason,

		PeakClauses:  r.Stats.BlockingClauses + r.Stats.PeakLearnts,
		PeakLearntKB: float64(r.Stats.PeakLearntBytes) / 1024,
		Blocking:     r.Stats.BlockingClauses,

		SimplifyVars: r.Stats.Simplify.VarsEliminated,
	}
	if opts.Engine == preimage.EngineBDD {
		row.Cubes = uint64(r.States.Len())
	}
	if r.Stats.CacheLookups > 0 {
		row.CacheHit = float64(r.Stats.CacheHits) / float64(r.Stats.CacheLookups)
	}
	if r.Stats.BlockingClauses > 0 {
		row.AvgBlock = float64(r.Stats.BlockingLits) / float64(r.Stats.BlockingClauses)
	}
	if r.Stats.Cubes > 0 {
		row.AvgFree = float64(r.Stats.LiftedFree) / float64(r.Stats.Cubes)
	}
	return row
}

// Table1 compares the four SAT enumeration engines on single-step
// preimage over the benchmark suite: time, decisions, conflicts, cubes.
func Table1() (*stats.Table, []Row) {
	tb := stats.NewTable("Table 1 — single-step preimage: SAT all-solutions engines",
		"circuit", "engine", "states", "cubes", "decisions", "conflicts", "time")
	var rows []Row
	for _, nc := range gen.Suite() {
		target := targetFor(nc.Circuit)
		for _, eng := range []preimage.Engine{
			preimage.EngineBlocking, preimage.EngineLifting, preimage.EngineDisjoint,
			preimage.EngineSuccessDriven,
		} {
			// The paper's engine comparison searches (state, input)
			// for every engine.
			row := run(nc.Circuit, target, preimage.Options{Engine: eng, WithInputs: true})
			rows = append(rows, row)
			tb.AddRow(row.Circuit, row.Engine.String(), truncMark(row.Count.String(), row),
				row.Cubes, row.Decisions, row.Conflicts, row.Time)
		}
	}
	return tb, rows
}

// Table2 compares the success-driven SAT engine against the BDD
// relational-product engine: time and memory proxy (engine BDD nodes).
func Table2() (*stats.Table, []Row) {
	tb := stats.NewTable("Table 2 — SAT (success-driven) vs BDD preimage engine",
		"circuit", "engine", "states", "bdd-nodes", "time")
	var rows []Row
	suite := append(gen.Suite(),
		gen.NamedCircuit{Name: "mult6", Circuit: gen.MultCore(6)},
		gen.NamedCircuit{Name: "mult8", Circuit: gen.MultCore(8)},
	)
	for _, nc := range suite {
		target := targetFor(nc.Circuit)
		for _, eng := range []preimage.Engine{preimage.EngineSuccessDriven, preimage.EngineBDD} {
			row := run(nc.Circuit, target, preimage.Options{Engine: eng})
			rows = append(rows, row)
			tb.AddRow(row.Circuit, row.Engine.String(), row.Count.String(),
				row.BDDNodes, row.Time)
		}
	}
	return tb, rows
}

// Table3 measures multi-step backward reachability to fixpoint (capped at
// maxSteps) for the success-driven, blocking, and BDD engines.
func Table3(maxSteps int) (*stats.Table, []Row) {
	tb := stats.NewTable("Table 3 — backward reachability (fixpoint or step cap)",
		"circuit", "engine", "steps", "states", "time")
	var rows []Row
	suite := []gen.NamedCircuit{
		{Name: "counter8", Circuit: gen.Counter(8, true, false)},
		{Name: "johnson8", Circuit: gen.Johnson(8)},
		{Name: "traffic", Circuit: gen.TrafficLight()},
		{Name: "slike1", Circuit: gen.SLike(gen.SLikeParams{Seed: 1, Inputs: 6, Latches: 6, Gates: 60})},
	}
	for _, nc := range suite {
		target := targetFor(nc.Circuit)
		for _, eng := range []preimage.Engine{
			preimage.EngineSuccessDriven, preimage.EngineBlocking, preimage.EngineBDD,
		} {
			opts := preimage.Options{Engine: eng, Budget: RunBudget, Incremental: RunIncremental,
				Simplify: resolveSimplify()}
			if RunWorkers > 1 {
				opts.Parallel = RunWorkers
			}
			if RunStats != nil {
				opts.Stats = RunStats.Phase(nc.Circuit.Name + "/" + eng.String())
			}
			t := stats.StartTimer()
			r, err := preimage.Reach(nc.Circuit, target, maxSteps, opts)
			if err != nil {
				panic(err)
			}
			row := Row{
				Circuit: nc.Circuit.Name,
				Engine:  eng,
				Time:    t.Elapsed(),
				Count:   r.AllCount,
				Steps:   r.Steps,
				Aborted: r.Aborted,
				Reason:  r.AbortReason,
			}
			rows = append(rows, row)
			tb.AddRow(row.Circuit, row.Engine.String(), row.Steps,
				truncMark(row.Count.String(), row), row.Time)
		}
	}
	return tb, rows
}

// Fig1 sweeps the size of the target set on a fixed-width counter and
// reports runtime versus the number of enumerated solutions: the target
// cube frees k low bits, so the preimage (and with it the number of
// models the blocking engine must enumerate one by one) doubles with
// each step, while the success-driven solver represents it as a few BDD
// nodes. This is the separation plot at the heart of the paper.
func Fig1(freeBits []int, width int) (*stats.Table, []Row) {
	tb := stats.NewTable("Figure 1 — runtime vs number of solutions (target-size sweep)",
		"free-bits", "engine", "solutions", "cubes", "time")
	var rows []Row
	c := gen.Counter(width, true, false)
	for _, k := range freeBits {
		if k >= width {
			panic("experiments: Fig1 free bits must be below the counter width")
		}
		pat := make([]byte, width)
		for i := range pat {
			if i < k {
				pat[i] = 'X'
			} else if i%2 == 0 {
				pat[i] = '1'
			} else {
				pat[i] = '0'
			}
		}
		target := trans.TargetFromPatterns(width, string(pat))
		for _, eng := range []preimage.Engine{preimage.EngineBlocking, preimage.EngineSuccessDriven} {
			// Solutions over (state, input), as in the paper's plot.
			row := run(c, target, preimage.Options{Engine: eng, WithInputs: true})
			row.Extra = float64(k)
			rows = append(rows, row)
			tb.AddRow(k, eng.String(), truncMark(row.Count.String(), row), row.Cubes, row.Time)
		}
	}
	return tb, rows
}

// Fig2 is the success-driven learning ablation: cache hit rate and
// runtime with memoization on versus off, sweeping circuit size.
func Fig2(sizes []int) (*stats.Table, []Row) {
	tb := stats.NewTable("Figure 2 — success-driven learning ablation (memo on/off)",
		"gates", "memo", "hit-rate", "decisions", "time")
	var rows []Row
	for _, g := range sizes {
		c := gen.SLike(gen.SLikeParams{Seed: 5, Inputs: 8, Latches: 8, Gates: g})
		target := targetFor(c)
		for _, memo := range []bool{false, true} {
			opts := preimage.Options{Engine: preimage.EngineSuccessDriven}
			opts.Core.EnableMemo = memo
			opts.Core.EnableLearning = true
			row := run(c, target, opts)
			row.Extra = float64(g)
			rows = append(rows, row)
			memoStr := "off"
			if memo {
				memoStr = "on"
			}
			tb.AddRow(g, memoStr, row.CacheHit, row.Decisions, row.Time)
		}
	}
	return tb, rows
}

// Fig4 sweeps the XOR fraction of the random family and reports, for the
// success-driven engine, the memo hit rate and runtime, and for the BDD
// engine the node count: XOR-rich logic erodes both the BDD's compactness
// and (more slowly) the residual-hash hit rate, locating where each
// engine's structure-exploitation breaks down.
func Fig4(fractions []float64) (*stats.Table, []Row) {
	tb := stats.NewTable("Figure 4 — XOR-richness sweep (memo hit rate / BDD nodes)",
		"xor-frac", "sd-hit-rate", "sd-time", "bdd-nodes", "bdd-time")
	var rows []Row
	for _, xf := range fractions {
		c := gen.SLike(gen.SLikeParams{Seed: 9, Inputs: 8, Latches: 8, Gates: 150, XorFraction: xf})
		target := targetFor(c)
		sd := run(c, target, preimage.Options{Engine: preimage.EngineSuccessDriven})
		bd := run(c, target, preimage.Options{Engine: preimage.EngineBDD})
		sd.Extra, bd.Extra = xf, xf
		rows = append(rows, sd, bd)
		tb.AddRow(xf, sd.CacheHit, sd.Time, bd.BDDNodes, bd.Time)
	}
	return tb, rows
}

// Fig3 measures cube enlargement: average free variables per solution
// cube and average blocking-clause length, blocking vs lifting.
func Fig3() (*stats.Table, []Row) {
	tb := stats.NewTable("Figure 3 — cube enlargement (blocking vs lifting)",
		"circuit", "engine", "cubes", "avg-free", "avg-blocking-len")
	var rows []Row
	for _, nc := range gen.Suite() {
		target := targetFor(nc.Circuit)
		for _, eng := range []preimage.Engine{preimage.EngineBlocking, preimage.EngineLifting} {
			row := run(nc.Circuit, target, preimage.Options{Engine: eng})
			rows = append(rows, row)
			tb.AddRow(row.Circuit, row.Engine.String(), row.Cubes, row.AvgFree, row.AvgBlock)
		}
	}
	return tb, rows
}

// Table5 is the BDD-engine variable-ordering ablation: interleaved
// (s_k, s'_k) pairs versus all-s-then-all-s' (segregated). The node
// counts show why interleaving is the standard choice for transition
// relations.
func Table5() (*stats.Table, []Row) {
	tb := stats.NewTable("Table 5 — BDD variable-order ablation (interleaved vs segregated)",
		"circuit", "order", "states", "bdd-nodes", "time")
	var rows []Row
	suite := []gen.NamedCircuit{
		{Name: "counter12", Circuit: gen.Counter(12, true, false)},
		{Name: "gray6", Circuit: gen.GrayCounter(6)},
		{Name: "slike2", Circuit: gen.SLike(gen.SLikeParams{Seed: 2, Inputs: 8, Latches: 8, Gates: 120})},
		{Name: "mult6", Circuit: gen.MultCore(6)},
	}
	for _, nc := range suite {
		target := targetFor(nc.Circuit)
		for _, seg := range []bool{false, true} {
			opts := preimage.Options{Engine: preimage.EngineBDD, BDDSegregatedOrder: seg}
			row := run(nc.Circuit, target, opts)
			rows = append(rows, row)
			name := "interleaved"
			if seg {
				name = "segregated"
			}
			tb.AddRow(nc.Circuit.Name, name, row.Count.String(), row.BDDNodes, row.Time)
		}
	}
	return tb, rows
}

// Table6 is the CNF-reduction ablation: no reduction against the bounded
// projection-safe simplifier (internal/simplify), for the success-driven
// and lifting engines. The states column is identical across the two
// rows of each pair by construction — the simplifier preserves the
// projection — while decisions, eliminated variables, and time show what
// the reduction buys.
func Table6() (*stats.Table, []Row) {
	tb := stats.NewTable("Table 6 — CNF-reduction ablation (none / simplify)",
		"circuit", "engine", "reduction", "states", "decisions", "vars-elim", "time")
	var rows []Row
	suite := []gen.NamedCircuit{
		{Name: "counter12", Circuit: gen.Counter(12, true, false)},
		{Name: "gray6", Circuit: gen.GrayCounter(6)},
		{Name: "slike1", Circuit: gen.SLike(gen.SLikeParams{Seed: 1, Inputs: 6, Latches: 6, Gates: 60})},
		{Name: "slike2", Circuit: gen.SLike(gen.SLikeParams{Seed: 2, Inputs: 8, Latches: 8, Gates: 120})},
	}
	reductions := []struct {
		name string
		opts preimage.Options
	}{
		{"none", preimage.Options{Simplify: simplify.Off}},
		{"simplify", preimage.Options{Simplify: simplify.On}},
	}
	for _, nc := range suite {
		target := targetFor(nc.Circuit)
		for _, eng := range []preimage.Engine{preimage.EngineSuccessDriven, preimage.EngineLifting} {
			for _, red := range reductions {
				opts := red.opts
				opts.Engine = eng
				row := run(nc.Circuit, target, opts)
				rows = append(rows, row)
				tb.AddRow(nc.Circuit.Name, eng.String(), red.name, row.Count.String(),
					row.Decisions, row.SimplifyVars, row.Time)
			}
		}
	}
	return tb, rows
}

// Table7 is the clause-database growth shootout: for each SAT engine,
// peak added clauses (blocking clauses plus the learnt-clause high-water
// mark) and the learnt arena's byte watermark alongside time.
// Blocking/lifting grow one clause per cube — the blowup the disjoint
// engine exists to avoid — so the columns are the memory story behind
// the Table 1 timings: the disjoint engine's blocking column is
// structurally zero and its peak is conflict-driven only. The KiB column
// is the tier-proof measure: learnt counts stopped being comparable
// across engines once the DB became tiered.
func Table7() (*stats.Table, []Row) {
	tb := stats.NewTable("Table 7 — clause-database growth: peak added clauses per engine",
		"circuit", "engine", "states", "cubes", "peak-clauses", "learnt-kb", "blocking", "time")
	var rows []Row
	for _, nc := range gen.Suite() {
		target := targetFor(nc.Circuit)
		for _, eng := range []preimage.Engine{
			preimage.EngineBlocking, preimage.EngineLifting, preimage.EngineDisjoint,
			preimage.EngineSuccessDriven,
		} {
			row := run(nc.Circuit, target, preimage.Options{Engine: eng})
			rows = append(rows, row)
			tb.AddRow(row.Circuit, row.Engine.String(), truncMark(row.Count.String(), row),
				row.Cubes, row.PeakClauses, fmt.Sprintf("%.1f", row.PeakLearntKB),
				row.Blocking, row.Time)
		}
	}
	return tb, rows
}

// Table4 is the decision-order ablation for the success-driven solver:
// state-first (default) vs input-first vs interleaved.
func Table4() (*stats.Table, []Row) {
	tb := stats.NewTable("Table 4 — decision-order ablation (success-driven)",
		"circuit", "order", "states", "decisions", "time")
	var rows []Row
	suite := []gen.NamedCircuit{
		{Name: "counter10", Circuit: gen.Counter(10, true, false)},
		{Name: "gray6", Circuit: gen.GrayCounter(6)},
		{Name: "slike1", Circuit: gen.SLike(gen.SLikeParams{Seed: 1, Inputs: 6, Latches: 6, Gates: 60})},
		{Name: "slike2", Circuit: gen.SLike(gen.SLikeParams{Seed: 2, Inputs: 8, Latches: 8, Gates: 120})},
	}
	orders := []struct {
		name string
		opts preimage.Options
	}{
		{"state-first", preimage.Options{Engine: preimage.EngineSuccessDriven}},
		{"input-first", preimage.Options{Engine: preimage.EngineSuccessDriven, InputFirstOrder: true}},
		{"interleave", preimage.Options{Engine: preimage.EngineSuccessDriven, Interleave: true}},
	}
	for _, nc := range suite {
		target := targetFor(nc.Circuit)
		for _, o := range orders {
			row := run(nc.Circuit, target, o.opts)
			rows = append(rows, row)
			tb.AddRow(nc.Circuit.Name, o.name, row.Count.String(), row.Decisions, row.Time)
		}
	}
	return tb, rows
}
