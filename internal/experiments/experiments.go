// Package experiments regenerates every table and figure of the
// evaluation (see DESIGN.md §4 for the per-experiment index). Each
// table is defined once, as a Table: its cells (one workload run under
// one variant each) and how a measured cell renders. cmd/experiments
// runs Tables and prints them; the root benchmarks run the same cells
// as sub-benchmarks, so both harnesses measure the same instances.
//
// The original paper's ISCAS-89 workloads are replaced by the seeded
// synthetic suite in internal/gen (see the substitution note in
// DESIGN.md); timings are wall-clock on the host, so the comparisons to
// report are ratios and orderings, not absolute numbers.
package experiments

import (
	"fmt"
	"math/big"
	"slices"
	"strings"
	"time"

	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/core"
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

// blockingCubeCap bounds the blocking/lifting baselines in the harness.
// On the largest workloads classical blocking needs minutes (its blowup is
// the paper's motivation); capped rows are reported as aborted, the way
// papers mark timeouts, so the harness stays interactive.
const blockingCubeCap = 5000

// targetFor builds the standard experiment target for a circuit: the cube
// around a state that is provably producible in one step (obtained by
// simulating one transition from a deterministic seed state), with every
// fifth position freed. This guarantees a non-empty preimage on every
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

// Cell is one measured row of a table: one workload run under one
// variant of the table's options. The root benchmarks run it as the
// sub-benchmark <Workload>/<Variant>, so `go test -bench` and
// cmd/experiments measure the same run.
type Cell struct {
	Workload, Variant string
	Circuit           *circuit.Circuit
	Target            *cube.Cover
	// Opts are the table's options for the run; Run fills the settings
	// they leave unset from the Run* globals.
	Opts preimage.Options
	// Reach makes the cell a backward reachability run of at most Steps
	// preimage steps (Steps <= 0 runs to fixpoint) instead of a one-step
	// preimage (Table 3).
	Reach bool
	Steps int
	// Extra is the sweep's x-axis value (Figs. 1, 2 and 4), copied into
	// Row.Extra.
	Extra float64
}

// Run measures the cell once. A zero Opts.Budget takes RunBudget, and a
// one-step blocking or lifting run is capped at blockingCubeCap cubes on
// top; an unset Parallel takes RunWorkers, an unset Stats a RunStats
// phase, and Simplify Auto the harness's mode (see RunSimplify).
// RunIncremental turns Incremental on.
func (c Cell) Run() Row {
	opts := c.Opts
	if opts.Budget.IsZero() {
		opts.Budget = RunBudget
	}
	if !c.Reach && (opts.Engine == preimage.EngineBlocking || opts.Engine == preimage.EngineLifting) &&
		(opts.Budget.MaxCubes == 0 || opts.Budget.MaxCubes > blockingCubeCap) {
		opts.Budget.MaxCubes = blockingCubeCap
	}
	if opts.Parallel == 0 && RunWorkers > 1 {
		opts.Parallel = RunWorkers
	}
	opts.Incremental = opts.Incremental || RunIncremental
	if opts.Stats == nil && RunStats != nil {
		opts.Stats = RunStats.Phase(c.Circuit.Name + "/" + opts.Engine.String())
	}
	if opts.Simplify == simplify.Auto {
		opts.Simplify = resolveSimplify()
	}
	row := Row{Circuit: c.Circuit.Name, Engine: opts.Engine, Extra: c.Extra}
	t := stats.StartTimer()
	if c.Reach {
		r, err := preimage.Reach(c.Circuit, c.Target, c.Steps, opts)
		if err != nil {
			panic(err) // experiment circuits are well-formed by construction
		}
		row.Time, row.Count, row.Steps = t.Elapsed(), r.AllCount, r.Steps
		row.Aborted, row.Reason = r.Aborted, r.AbortReason
		return row
	}
	r, err := preimage.Compute(c.Circuit, c.Target, opts)
	if err != nil {
		panic(err)
	}
	row.Time, row.Count = t.Elapsed(), r.Count
	row.Aborted, row.Reason = r.Aborted, r.AbortReason
	row.Cubes, row.Solutions = r.Stats.Cubes, r.Stats.Solutions
	row.Decisions, row.Conflicts = r.Stats.Decisions, r.Stats.Conflicts
	row.BDDNodes = r.BDDNodes
	row.PeakClauses = r.Stats.BlockingClauses + r.Stats.PeakLearnts
	row.PeakLearntKB = float64(r.Stats.PeakLearntBytes) / 1024
	row.Blocking = r.Stats.BlockingClauses
	row.SimplifyVars = r.Stats.Simplify.VarsEliminated
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

// Table is one table or figure of the evaluation, defined once: its
// cells in row order, and how a measured cell renders.
type Table struct {
	Name    string // the cmd/experiments -only key: table1..table7, fig1..fig4
	Cells   []Cell
	title   string
	columns []string
	// row renders a measured cell; nil adds no row (Fig. 4 renders each
	// pair of cells as one row).
	row func(Cell, Row) []any
}

// Run measures every cell in order and renders the table.
func (t Table) Run() (*stats.Table, []Row) {
	tb := stats.NewTable(t.title, t.columns...)
	rows := make([]Row, len(t.Cells))
	for i, c := range t.Cells {
		rows[i] = c.Run()
		if cols := t.row(c, rows[i]); cols != nil {
			tb.AddRow(cols...)
		}
	}
	return tb, rows
}

// ReachSteps is Table 3's step cap in the evaluation.
const ReachSteps = 6

// Tables is the evaluation in the order cmd/experiments prints it, at
// the sweep values it reports: Table 3 capped at steps, Fig. 1 freeing
// 2..12 bits of a 16-bit counter, Fig. 2 over 40..320 gates, and Fig. 4
// over XOR fractions 0.01..0.6.
func Tables(steps int) []Table {
	return []Table{
		table1(), table2(), table3(steps),
		fig1([]int{2, 4, 6, 8, 10, 12}, 16),
		fig2([]int{40, 80, 160, 320}),
		fig3(),
		fig4([]float64{0.01, 0.1, 0.25, 0.4, 0.6}),
		table4(), table5(), table6(), table7(),
	}
}

// Select returns the tables named in names, in the order of tables; no
// names selects them all. A name no table has is an error that lists
// the names there are.
func Select(tables []Table, names []string) ([]Table, error) {
	if len(names) == 0 {
		return tables, nil
	}
	known := make([]string, len(tables))
	for i, t := range tables {
		known[i] = t.Name
	}
	for _, n := range names {
		if !slices.Contains(known, n) {
			return nil, fmt.Errorf("unknown table %q (want one of %s)", n, strings.Join(known, ", "))
		}
	}
	return slices.DeleteFunc(slices.Clone(tables), func(t Table) bool {
		return !slices.Contains(names, t.Name)
	}), nil
}

// named turns a suite into workloads: cells with a circuit at its
// targetFor target and no variant yet.
func named(suite []gen.NamedCircuit) []Cell {
	ws := make([]Cell, len(suite))
	for i, nc := range suite {
		ws[i] = Cell{Workload: nc.Name, Circuit: nc.Circuit, Target: targetFor(nc.Circuit)}
	}
	return ws
}

// variant is one setting a table compares: its name and options.
type variant struct {
	name string
	opts preimage.Options
}

// engines is one variant per engine, named after it, on top of base.
func engines(base preimage.Options, engs ...preimage.Engine) []variant {
	vs := make([]variant, len(engs))
	for i, eng := range engs {
		vs[i] = variant{eng.String(), base}
		vs[i].opts.Engine = eng
	}
	return vs
}

// cross is a table's cells: every workload under every variant, in
// workload order.
func cross(ws []Cell, vs []variant) []Cell {
	cells := make([]Cell, 0, len(ws)*len(vs))
	for _, w := range ws {
		for _, v := range vs {
			w.Variant, w.Opts = v.name, v.opts
			cells = append(cells, w)
		}
	}
	return cells
}

// The four SAT enumeration engines Tables 1 and 7 compare.
var satEngines = []preimage.Engine{
	preimage.EngineBlocking, preimage.EngineLifting, preimage.EngineDisjoint,
	preimage.EngineSuccessDriven,
}

// table1 compares the four SAT enumeration engines on single-step
// preimage over the benchmark suite: time, decisions, conflicts, cubes.
// The paper's engine comparison searches (state, input) for every engine.
func table1() Table {
	return Table{
		Name:    "table1",
		Cells:   cross(named(gen.Suite()), engines(preimage.Options{WithInputs: true}, satEngines...)),
		title:   "Table 1 — single-step preimage: SAT all-solutions engines",
		columns: []string{"circuit", "engine", "states", "cubes", "decisions", "conflicts", "time"},
		row: func(_ Cell, r Row) []any {
			return []any{r.Circuit, r.Engine.String(), truncMark(r.Count.String(), r),
				r.Cubes, r.Decisions, r.Conflicts, r.Time}
		},
	}
}

// table2 compares the success-driven SAT engine against the BDD
// relational-product engine: time and memory proxy (engine BDD nodes),
// adding the BDD-hostile multiplier cores to the suite.
func table2() Table {
	suite := append(gen.Suite(),
		gen.NamedCircuit{Name: "mult6", Circuit: gen.MultCore(6)},
		gen.NamedCircuit{Name: "mult8", Circuit: gen.MultCore(8)},
	)
	return Table{
		Name: "table2",
		Cells: cross(named(suite),
			engines(preimage.Options{}, preimage.EngineSuccessDriven, preimage.EngineBDD)),
		title:   "Table 2 — SAT (success-driven) vs BDD preimage engine",
		columns: []string{"circuit", "engine", "states", "bdd-nodes", "time"},
		row: func(_ Cell, r Row) []any {
			return []any{r.Circuit, r.Engine.String(), r.Count.String(), r.BDDNodes, r.Time}
		},
	}
}

// table3 measures multi-step backward reachability to fixpoint (capped
// at maxSteps) for the success-driven, blocking, and BDD engines.
func table3(maxSteps int) Table {
	suite := []gen.NamedCircuit{
		{Name: "counter8", Circuit: gen.Counter(8, true, false)},
		{Name: "johnson8", Circuit: gen.Johnson(8)},
		{Name: "traffic", Circuit: gen.TrafficLight()},
		{Name: "slike1", Circuit: gen.SLike(gen.SLikeParams{Seed: 1, Inputs: 6, Latches: 6, Gates: 60})},
	}
	cells := cross(named(suite), engines(preimage.Options{},
		preimage.EngineSuccessDriven, preimage.EngineBlocking, preimage.EngineBDD))
	for i := range cells {
		cells[i].Reach, cells[i].Steps = true, maxSteps
	}
	return Table{
		Name:    "table3",
		Cells:   cells,
		title:   "Table 3 — backward reachability (fixpoint or step cap)",
		columns: []string{"circuit", "engine", "steps", "states", "time"},
		row: func(_ Cell, r Row) []any {
			return []any{r.Circuit, r.Engine.String(), r.Steps, truncMark(r.Count.String(), r), r.Time}
		},
	}
}

// fig1 sweeps the size of the target set on a fixed-width counter and
// reports runtime versus the number of enumerated solutions: the target
// cube frees k low bits, so the preimage (and with it the number of
// models the blocking engine must enumerate one by one) doubles with
// each step, while the success-driven solver represents it as a few BDD
// nodes. This is the separation plot at the heart of the paper; its
// solutions are counted over (state, input), as in the paper's plot.
func fig1(freeBits []int, width int) Table {
	c := gen.Counter(width, true, false)
	var ws []Cell
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
		ws = append(ws, Cell{Workload: fmt.Sprintf("free%d", k), Circuit: c,
			Target: trans.TargetFromPatterns(width, string(pat)), Extra: float64(k)})
	}
	return Table{
		Name: "fig1",
		Cells: cross(ws, engines(preimage.Options{WithInputs: true},
			preimage.EngineBlocking, preimage.EngineSuccessDriven)),
		title:   "Figure 1 — runtime vs number of solutions (target-size sweep)",
		columns: []string{"free-bits", "engine", "solutions", "cubes", "time"},
		row: func(_ Cell, r Row) []any {
			return []any{int(r.Extra), r.Engine.String(), truncMark(r.Count.String(), r), r.Cubes, r.Time}
		},
	}
}

// fig2 is the success-driven learning ablation: cache hit rate and
// runtime with memoization on versus off, sweeping circuit size.
func fig2(sizes []int) Table {
	var ws []Cell
	for _, g := range sizes {
		c := gen.SLike(gen.SLikeParams{Seed: 5, Inputs: 8, Latches: 8, Gates: g})
		ws = append(ws, Cell{Workload: fmt.Sprintf("g%d", g), Circuit: c, Target: targetFor(c), Extra: float64(g)})
	}
	vs := []variant{
		{"memo-off", preimage.Options{Engine: preimage.EngineSuccessDriven,
			Core: core.Options{EnableLearning: true}}},
		{"memo-on", preimage.Options{Engine: preimage.EngineSuccessDriven,
			Core: core.Options{EnableMemo: true, EnableLearning: true}}},
	}
	return Table{
		Name:    "fig2",
		Cells:   cross(ws, vs),
		title:   "Figure 2 — success-driven learning ablation (memo on/off)",
		columns: []string{"gates", "memo", "hit-rate", "decisions", "time"},
		row: func(c Cell, r Row) []any {
			return []any{int(r.Extra), strings.TrimPrefix(c.Variant, "memo-"), r.CacheHit, r.Decisions, r.Time}
		},
	}
}

// fig3 measures cube enlargement: average free variables per solution
// cube and average blocking-clause length, blocking vs lifting.
func fig3() Table {
	return Table{
		Name: "fig3",
		Cells: cross(named(gen.Suite()),
			engines(preimage.Options{}, preimage.EngineBlocking, preimage.EngineLifting)),
		title:   "Figure 3 — cube enlargement (blocking vs lifting)",
		columns: []string{"circuit", "engine", "cubes", "avg-free", "avg-blocking-len"},
		row: func(_ Cell, r Row) []any {
			return []any{r.Circuit, r.Engine.String(), r.Cubes, r.AvgFree, r.AvgBlock}
		},
	}
}

// fig4 sweeps the XOR fraction of the random family and reports, for the
// success-driven engine, the memo hit rate and runtime, and for the BDD
// engine the node count: XOR-rich logic erodes both the BDD's compactness
// and (more slowly) the residual-hash hit rate, locating where each
// engine's structure-exploitation breaks down.
func fig4(fractions []float64) Table {
	var ws []Cell
	for _, xf := range fractions {
		c := gen.SLike(gen.SLikeParams{Seed: 9, Inputs: 8, Latches: 8, Gates: 150, XorFraction: xf})
		ws = append(ws, Cell{Workload: fmt.Sprintf("xf%.2f", xf), Circuit: c, Target: targetFor(c), Extra: xf})
	}
	// Each sweep point's success-driven cell precedes its BDD cell; the
	// pair renders as one row.
	var sd Row
	return Table{
		Name: "fig4",
		Cells: cross(ws,
			engines(preimage.Options{}, preimage.EngineSuccessDriven, preimage.EngineBDD)),
		title:   "Figure 4 — XOR-richness sweep (memo hit rate / BDD nodes)",
		columns: []string{"xor-frac", "sd-hit-rate", "sd-time", "bdd-nodes", "bdd-time"},
		row: func(_ Cell, r Row) []any {
			if r.Engine == preimage.EngineSuccessDriven {
				sd = r
				return nil
			}
			return []any{r.Extra, sd.CacheHit, sd.Time, r.BDDNodes, r.Time}
		},
	}
}

// table4 is the decision-order ablation for the success-driven solver:
// state-first (default) vs input-first vs interleaved.
func table4() Table {
	suite := []gen.NamedCircuit{
		{Name: "counter10", Circuit: gen.Counter(10, true, false)},
		{Name: "gray6", Circuit: gen.GrayCounter(6)},
		{Name: "slike1", Circuit: gen.SLike(gen.SLikeParams{Seed: 1, Inputs: 6, Latches: 6, Gates: 60})},
		{Name: "slike2", Circuit: gen.SLike(gen.SLikeParams{Seed: 2, Inputs: 8, Latches: 8, Gates: 120})},
	}
	orders := []variant{
		{"state-first", preimage.Options{Engine: preimage.EngineSuccessDriven}},
		{"input-first", preimage.Options{Engine: preimage.EngineSuccessDriven, InputFirstOrder: true}},
		{"interleave", preimage.Options{Engine: preimage.EngineSuccessDriven, Interleave: true}},
	}
	return Table{
		Name:    "table4",
		Cells:   cross(named(suite), orders),
		title:   "Table 4 — decision-order ablation (success-driven)",
		columns: []string{"circuit", "order", "states", "decisions", "time"},
		row: func(c Cell, r Row) []any {
			return []any{r.Circuit, c.Variant, r.Count.String(), r.Decisions, r.Time}
		},
	}
}

// table5 is the BDD-engine variable-ordering ablation: interleaved
// (s_k, s'_k) pairs versus all-s-then-all-s' (segregated). The node
// counts show why interleaving is the standard choice for transition
// relations.
func table5() Table {
	suite := []gen.NamedCircuit{
		{Name: "counter12", Circuit: gen.Counter(12, true, false)},
		{Name: "gray6", Circuit: gen.GrayCounter(6)},
		{Name: "slike2", Circuit: gen.SLike(gen.SLikeParams{Seed: 2, Inputs: 8, Latches: 8, Gates: 120})},
		{Name: "mult6", Circuit: gen.MultCore(6)},
	}
	orders := []variant{
		{"interleaved", preimage.Options{Engine: preimage.EngineBDD}},
		{"segregated", preimage.Options{Engine: preimage.EngineBDD, BDDSegregatedOrder: true}},
	}
	return Table{
		Name:    "table5",
		Cells:   cross(named(suite), orders),
		title:   "Table 5 — BDD variable-order ablation (interleaved vs segregated)",
		columns: []string{"circuit", "order", "states", "bdd-nodes", "time"},
		row: func(c Cell, r Row) []any {
			return []any{r.Circuit, c.Variant, r.Count.String(), r.BDDNodes, r.Time}
		},
	}
}

// table6 is the CNF-reduction ablation: no reduction against the bounded
// projection-safe simplifier (internal/simplify), for the success-driven
// and lifting engines. The states column is identical across the two
// rows of each pair by construction — the simplifier preserves the
// projection — while decisions, eliminated variables, and time show what
// the reduction buys.
func table6() Table {
	suite := []gen.NamedCircuit{
		{Name: "counter12", Circuit: gen.Counter(12, true, false)},
		{Name: "gray6", Circuit: gen.GrayCounter(6)},
		{Name: "slike1", Circuit: gen.SLike(gen.SLikeParams{Seed: 1, Inputs: 6, Latches: 6, Gates: 60})},
		{Name: "slike2", Circuit: gen.SLike(gen.SLikeParams{Seed: 2, Inputs: 8, Latches: 8, Gates: 120})},
	}
	var vs []variant
	for _, eng := range []preimage.Engine{preimage.EngineSuccessDriven, preimage.EngineLifting} {
		vs = append(vs,
			variant{eng.String() + "/none", preimage.Options{Engine: eng, Simplify: simplify.Off}},
			variant{eng.String() + "/simplify", preimage.Options{Engine: eng, Simplify: simplify.On}})
	}
	return Table{
		Name:    "table6",
		Cells:   cross(named(suite), vs),
		title:   "Table 6 — CNF-reduction ablation (none / simplify)",
		columns: []string{"circuit", "engine", "reduction", "states", "decisions", "vars-elim", "time"},
		row: func(c Cell, r Row) []any {
			reduction := c.Variant[strings.LastIndexByte(c.Variant, '/')+1:]
			return []any{r.Circuit, r.Engine.String(), reduction, r.Count.String(),
				r.Decisions, r.SimplifyVars, r.Time}
		},
	}
}

// table7 is the clause-database growth shootout: for each SAT engine,
// peak added clauses (blocking clauses plus the learnt-clause high-water
// mark) and the learnt arena's byte watermark alongside time.
// Blocking/lifting grow one clause per cube — the blowup the disjoint
// engine exists to avoid — so the columns are the memory story behind
// the Table 1 timings: the disjoint engine's blocking column is
// structurally zero and its peak is conflict-driven only. The KiB column
// is the tier-proof measure: learnt counts stopped being comparable
// across engines once the DB became tiered.
func table7() Table {
	return Table{
		Name:  "table7",
		Cells: cross(named(gen.Suite()), engines(preimage.Options{}, satEngines...)),
		title: "Table 7 — clause-database growth: peak added clauses per engine",
		columns: []string{"circuit", "engine", "states", "cubes", "peak-clauses", "learnt-kb",
			"blocking", "time"},
		row: func(_ Cell, r Row) []any {
			return []any{r.Circuit, r.Engine.String(), truncMark(r.Count.String(), r), r.Cubes,
				r.PeakClauses, fmt.Sprintf("%.1f", r.PeakLearntKB), r.Blocking, r.Time}
		},
	}
}
