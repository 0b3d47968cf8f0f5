package allsatpre

// Benchmark harness: one Benchmark per table/figure of the evaluation
// (DESIGN.md §4). Each runs its table's own cells, defined once in
// internal/experiments, as sub-benchmarks named <workload>/<variant> in
// table order, so
//
//	go test -bench=Table1 -benchmem
//
// measures exactly the runs behind `go run ./cmd/experiments -only
// table1`, which prints them as a formatted table with derived columns.
// The sweep benchmarks (ParallelEnumerate, ReachIncremental, Simplify)
// take a table's cells and vary one option on top.

import (
	"fmt"
	"testing"

	"allsatpre/internal/experiments"
	"allsatpre/internal/preimage"
	"allsatpre/internal/simplify"
)

// tableCells returns the cells of the evaluation table named name
// (table1..table7, fig1..fig4) at the values cmd/experiments reports.
func tableCells(b *testing.B, name string) []experiments.Cell {
	b.Helper()
	for _, t := range experiments.Tables(experiments.ReachSteps) {
		if t.Name == name {
			return t.Cells
		}
	}
	b.Fatalf("no table %q", name)
	return nil
}

// engineCells keeps the cells that run engine eng.
func engineCells(cells []experiments.Cell, eng preimage.Engine) []experiments.Cell {
	var out []experiments.Cell
	for _, c := range cells {
		if c.Opts.Engine == eng {
			out = append(out, c)
		}
	}
	return out
}

// benchCell runs one cell per iteration and reports the measured state
// count as "states", then whatever metrics adds (nil adds none).
func benchCell(b *testing.B, c experiments.Cell, metrics func(*testing.B, experiments.Row)) {
	b.ReportAllocs()
	var row experiments.Row
	for i := 0; i < b.N; i++ {
		row = c.Run()
	}
	b.ReportMetric(float64(row.Count.Int64()), "states")
	if metrics != nil {
		metrics(b, row)
	}
}

// benchTable runs every cell of the named table as a sub-benchmark
// <workload>/<variant>, in table order.
func benchTable(b *testing.B, name string, metrics func(*testing.B, experiments.Row)) {
	for _, c := range tableCells(b, name) {
		b.Run(c.Workload+"/"+c.Variant, func(b *testing.B) { benchCell(b, c, metrics) })
	}
}

// BenchmarkTable1 — single-step (state, input) preimage across the four
// SAT engines (blocking, lifting, disjoint, success-driven) on the suite.
func BenchmarkTable1(b *testing.B) { benchTable(b, "table1", nil) }

// BenchmarkTable2 — the success-driven SAT engine vs the BDD
// relational-product engine, including the BDD-hostile multiplier cores.
func BenchmarkTable2(b *testing.B) { benchTable(b, "table2", nil) }

// BenchmarkTable3 — multi-step backward reachability (step-capped).
func BenchmarkTable3(b *testing.B) { benchTable(b, "table3", nil) }

// BenchmarkTable4 — decision-order ablation for the success-driven engine.
func BenchmarkTable4(b *testing.B) { benchTable(b, "table4", nil) }

// BenchmarkTable5 — BDD variable-order ablation (interleaved (s,s') pairs
// vs segregated blocks).
func BenchmarkTable5(b *testing.B) { benchTable(b, "table5", nil) }

// BenchmarkTable6 — CNF-reduction ablation: no reduction vs the
// projection-safe simplifier, success-driven and lifting engines.
func BenchmarkTable6(b *testing.B) { benchTable(b, "table6", nil) }

// BenchmarkTable7 — clause-database growth shootout: the four SAT
// engines with the peak added-clause count (blocking clauses + learnt
// high-water mark) reported alongside time, so the recorded baselines
// carry the memory story of the blocking-free disjoint engine.
func BenchmarkTable7(b *testing.B) {
	benchTable(b, "table7", func(b *testing.B, r experiments.Row) {
		b.ReportMetric(float64(r.PeakClauses), "peak-clauses")
		b.ReportMetric(float64(r.Blocking), "blocking")
		b.ReportMetric(r.PeakLearntKB, "learnt-kb")
	})
}

// BenchmarkFig1 — runtime vs solution count: target-size sweep on a
// 16-bit counter (k free bits → ~2^k solutions), blocking vs the
// success-driven solver.
func BenchmarkFig1(b *testing.B) { benchTable(b, "fig1", nil) }

// BenchmarkFig2 — success-driven learning ablation: memoization on vs off
// over growing random circuits.
func BenchmarkFig2(b *testing.B) { benchTable(b, "fig2", nil) }

// BenchmarkFig3 — cube enlargement: blocking vs lifting enumeration cost
// on the suite (cube counts are reported by cmd/experiments -only fig3).
func BenchmarkFig3(b *testing.B) { benchTable(b, "fig3", nil) }

// BenchmarkFig4 — XOR-richness sweep: success-driven vs BDD on the random
// family as the logic becomes XOR-dominated.
func BenchmarkFig4(b *testing.B) { benchTable(b, "fig4", nil) }

// BenchmarkReachIncremental — fresh vs incremental multi-step backward
// reachability on Table 3's success-driven cells. The fresh path
// re-encodes the circuit and rebuilds a solver set and BDD manager every
// step; the incremental path (internal/incr) keeps one session alive and
// retargets it with activation literals, retaining learned clauses
// across steps. Results are bit-identical (see internal/preimage's
// incremental equivalence suite), so the delta is pure re-encoding plus
// lost-learning cost.
func BenchmarkReachIncremental(b *testing.B) {
	steps := func(b *testing.B, r experiments.Row) { b.ReportMetric(float64(r.Steps), "steps") }
	for _, c := range engineCells(tableCells(b, "table3"), preimage.EngineSuccessDriven) {
		for _, incr := range []bool{false, true} {
			mode := "fresh"
			if incr {
				mode = "incremental"
			}
			c.Opts.Incremental = incr
			b.Run(c.Workload+"/"+mode, func(b *testing.B) { benchCell(b, c, steps) })
		}
	}
}

// BenchmarkParallelEnumerate — worker-count sweep for the guiding-path
// pool (internal/pool) behind the success-driven engine: Table 2's
// success-driven preimages enumerated with 1/2/4/8 workers. The merged
// cover is bit-identical across worker counts (see internal/preimage's
// differential oracle), so ns/op differences are pure scheduling cost or
// speedup. On a single-core host the sweep measures the pool's overhead
// rather than parallel speedup; BENCH_2.json records which one it was.
func BenchmarkParallelEnumerate(b *testing.B) {
	for _, c := range engineCells(tableCells(b, "table2"), preimage.EngineSuccessDriven) {
		for _, w := range []int{1, 2, 4, 8} {
			c.Opts.Parallel = w
			b.Run(fmt.Sprintf("%s/w%d", c.Workload, w), func(b *testing.B) { benchCell(b, c, nil) })
		}
	}
}

// BenchmarkSimplify — the projection-safe preprocessor on vs off for
// Table 7's one-step preimages (the four SAT engines over the suite)
// and, under /reach, Table 3's success-driven reachability runs. Covers
// are identical either way (internal/preimage's differential oracle pins
// this), so the on/off ns/op ratio is the pure win (or cost) of
// eliminating auxiliary variables before enumeration.
func BenchmarkSimplify(b *testing.B) {
	modes := []struct {
		name string
		mode simplify.Mode
	}{
		{"simplify=off", simplify.Off},
		{"simplify=on", simplify.On},
	}
	for _, c := range tableCells(b, "table7") {
		for _, sm := range modes {
			c.Opts.Simplify = sm.mode
			b.Run(c.Workload+"/"+c.Variant+"/"+sm.name, func(b *testing.B) { benchCell(b, c, nil) })
		}
	}
	for _, c := range engineCells(tableCells(b, "table3"), preimage.EngineSuccessDriven) {
		for _, sm := range modes {
			c.Opts.Simplify = sm.mode
			b.Run("reach/"+c.Workload+"/"+sm.name, func(b *testing.B) { benchCell(b, c, nil) })
		}
	}
}
