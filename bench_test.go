package allsatpre

// Benchmark harness: one Benchmark per table/figure of the evaluation
// (DESIGN.md §4). Sub-benchmarks are named <workload>/<engine> so
//
//	go test -bench=Table1 -benchmem
//
// regenerates the corresponding table's measurements; cmd/experiments
// prints the same data as formatted tables with derived columns.

import (
	"fmt"
	"testing"

	"allsatpre/internal/circuit"
	"allsatpre/internal/core"
	"allsatpre/internal/cube"
	"allsatpre/internal/experiments"
	"allsatpre/internal/gen"
	"allsatpre/internal/preimage"
	"allsatpre/internal/simplify"
	"allsatpre/internal/trans"
)

// cappedOpts applies the harness's blocking-cube cap (see
// experiments.BlockingCubeCap) so the baselines' blowup on the largest
// workloads does not stall the benchmark run; capped iterations measure
// "time to the cap", mirroring timeout rows in the paper-style tables.
func cappedOpts(eng preimage.Engine) preimage.Options {
	opts := preimage.Options{Engine: eng}
	if eng == preimage.EngineBlocking || eng == preimage.EngineLifting {
		opts.Budget.MaxCubes = experiments.BlockingCubeCap
	}
	return opts
}

// benchTarget mirrors the experiment harness's target choice: the cube
// around a provably producible next state with every fifth position free.
func benchTarget(c *circuit.Circuit) *cube.Cover {
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
		pat[0] = '0'
		if next[0] {
			pat[0] = '1'
		}
	}
	return trans.TargetFromPatterns(n, string(pat))
}

func benchPreimage(b *testing.B, c *circuit.Circuit, target *cube.Cover, opts preimage.Options) {
	b.Helper()
	b.ReportAllocs()
	var states int64
	for i := 0; i < b.N; i++ {
		r, err := preimage.Compute(c, target, opts)
		if err != nil {
			b.Fatal(err)
		}
		states = r.Count.Int64()
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkTable1 — single-step preimage across the four SAT engines
// (blocking, lifting, disjoint, success-driven) on the benchmark suite.
func BenchmarkTable1(b *testing.B) {
	engines := []preimage.Engine{
		preimage.EngineBlocking, preimage.EngineLifting, preimage.EngineDisjoint,
		preimage.EngineSuccessDriven,
	}
	for _, nc := range gen.Suite() {
		target := benchTarget(nc.Circuit)
		for _, eng := range engines {
			b.Run(fmt.Sprintf("%s/%s", nc.Name, eng), func(b *testing.B) {
				benchPreimage(b, nc.Circuit, target, cappedOpts(eng))
			})
		}
	}
}

// BenchmarkTable2 — the success-driven SAT engine vs the BDD
// relational-product engine, including the BDD-hostile multiplier cores.
func BenchmarkTable2(b *testing.B) {
	suite := append(gen.Suite(),
		gen.NamedCircuit{Name: "mult6", Circuit: gen.MultCore(6)},
		gen.NamedCircuit{Name: "mult8", Circuit: gen.MultCore(8)},
	)
	for _, nc := range suite {
		target := benchTarget(nc.Circuit)
		for _, eng := range []preimage.Engine{preimage.EngineSuccessDriven, preimage.EngineBDD} {
			b.Run(fmt.Sprintf("%s/%s", nc.Name, eng), func(b *testing.B) {
				benchPreimage(b, nc.Circuit, target, preimage.Options{Engine: eng})
			})
		}
	}
}

// BenchmarkTable7 — clause-database growth shootout: the four SAT
// engines with the peak added-clause count (blocking clauses + learnt
// high-water mark) reported alongside time, so the recorded baselines
// carry the memory story of the blocking-free disjoint engine.
func BenchmarkTable7(b *testing.B) {
	engines := []preimage.Engine{
		preimage.EngineBlocking, preimage.EngineLifting, preimage.EngineDisjoint,
		preimage.EngineSuccessDriven,
	}
	for _, nc := range gen.Suite() {
		target := benchTarget(nc.Circuit)
		for _, eng := range engines {
			b.Run(fmt.Sprintf("%s/%s", nc.Name, eng), func(b *testing.B) {
				b.ReportAllocs()
				var peak, blocking, learntBytes uint64
				for i := 0; i < b.N; i++ {
					r, err := preimage.Compute(nc.Circuit, target, cappedOpts(eng))
					if err != nil {
						b.Fatal(err)
					}
					peak = r.Stats.BlockingClauses + r.Stats.PeakLearnts
					blocking = r.Stats.BlockingClauses
					learntBytes = r.Stats.PeakLearntBytes
				}
				b.ReportMetric(float64(peak), "peak-clauses")
				b.ReportMetric(float64(blocking), "blocking")
				b.ReportMetric(float64(learntBytes)/1024, "learnt-kb")
			})
		}
	}
}

// BenchmarkTable3 — multi-step backward reachability (step-capped).
func BenchmarkTable3(b *testing.B) {
	suite := []gen.NamedCircuit{
		{Name: "counter8", Circuit: gen.Counter(8, true, false)},
		{Name: "johnson8", Circuit: gen.Johnson(8)},
		{Name: "traffic", Circuit: gen.TrafficLight()},
		{Name: "slike1", Circuit: gen.SLike(gen.SLikeParams{Seed: 1, Inputs: 6, Latches: 6, Gates: 60})},
	}
	engines := []preimage.Engine{
		preimage.EngineSuccessDriven, preimage.EngineBlocking, preimage.EngineBDD,
	}
	for _, nc := range suite {
		target := benchTarget(nc.Circuit)
		for _, eng := range engines {
			b.Run(fmt.Sprintf("%s/%s", nc.Name, eng), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := preimage.Reach(nc.Circuit, target, 6, preimage.Options{Engine: eng}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkReachIncremental — fresh vs incremental multi-step backward
// reachability on the Table 3 suite (success-driven engine, 6-step cap).
// The fresh path re-encodes the circuit and rebuilds a solver set and BDD
// manager every step; the incremental path (internal/incr) keeps one
// session alive and retargets it with activation literals, retaining
// learned clauses across steps. Results are bit-identical (see
// internal/preimage's incremental equivalence suite), so the delta is
// pure re-encoding plus lost-learning cost.
func BenchmarkReachIncremental(b *testing.B) {
	suite := []gen.NamedCircuit{
		{Name: "counter8", Circuit: gen.Counter(8, true, false)},
		{Name: "johnson8", Circuit: gen.Johnson(8)},
		{Name: "traffic", Circuit: gen.TrafficLight()},
		{Name: "slike1", Circuit: gen.SLike(gen.SLikeParams{Seed: 1, Inputs: 6, Latches: 6, Gates: 60})},
	}
	for _, nc := range suite {
		target := benchTarget(nc.Circuit)
		for _, incr := range []bool{false, true} {
			mode := "fresh"
			if incr {
				mode = "incremental"
			}
			b.Run(fmt.Sprintf("%s/%s", nc.Name, mode), func(b *testing.B) {
				b.ReportAllocs()
				var steps int
				for i := 0; i < b.N; i++ {
					r, err := preimage.Reach(nc.Circuit, target, 6,
						preimage.Options{Engine: preimage.EngineSuccessDriven, Incremental: incr})
					if err != nil {
						b.Fatal(err)
					}
					steps = r.Steps
				}
				b.ReportMetric(float64(steps), "steps")
			})
		}
	}
}

// BenchmarkFig1 — runtime vs solution count: target-size sweep on a
// 16-bit counter (k free bits → ~2^k solutions), blocking vs the
// success-driven solver.
func BenchmarkFig1(b *testing.B) {
	const width = 16
	c := gen.Counter(width, true, false)
	for _, k := range []int{2, 4, 6, 8, 10} {
		pat := make([]byte, width)
		for i := range pat {
			switch {
			case i < k:
				pat[i] = 'X'
			case i%2 == 0:
				pat[i] = '1'
			default:
				pat[i] = '0'
			}
		}
		target := trans.TargetFromPatterns(width, string(pat))
		for _, eng := range []preimage.Engine{preimage.EngineBlocking, preimage.EngineSuccessDriven} {
			b.Run(fmt.Sprintf("free%d/%s", k, eng), func(b *testing.B) {
				benchPreimage(b, c, target, cappedOpts(eng))
			})
		}
	}
}

// BenchmarkFig2 — success-driven learning ablation: memoization on vs off
// over growing random circuits.
func BenchmarkFig2(b *testing.B) {
	for _, g := range []int{40, 80, 160, 320} {
		c := gen.SLike(gen.SLikeParams{Seed: 5, Inputs: 8, Latches: 8, Gates: g})
		target := benchTarget(c)
		for _, memo := range []bool{false, true} {
			name := fmt.Sprintf("g%d/memo-off", g)
			if memo {
				name = fmt.Sprintf("g%d/memo-on", g)
			}
			opts := preimage.Options{Engine: preimage.EngineSuccessDriven}
			opts.Core = core.Options{EnableMemo: memo, EnableLearning: true}
			b.Run(name, func(b *testing.B) {
				benchPreimage(b, c, target, opts)
			})
		}
	}
}

// BenchmarkFig3 — cube enlargement: blocking vs lifting enumeration cost
// on the suite (cube counts are reported by cmd/experiments -only fig3).
func BenchmarkFig3(b *testing.B) {
	for _, nc := range gen.Suite() {
		target := benchTarget(nc.Circuit)
		for _, eng := range []preimage.Engine{preimage.EngineBlocking, preimage.EngineLifting} {
			b.Run(fmt.Sprintf("%s/%s", nc.Name, eng), func(b *testing.B) {
				benchPreimage(b, nc.Circuit, target, cappedOpts(eng))
			})
		}
	}
}

// BenchmarkFig4 — XOR-richness sweep: success-driven vs BDD on the random
// family as the logic becomes XOR-dominated.
func BenchmarkFig4(b *testing.B) {
	for _, xf := range []float64{0.05, 0.25, 0.5} {
		c := gen.SLike(gen.SLikeParams{Seed: 9, Inputs: 8, Latches: 8, Gates: 150, XorFraction: xf})
		target := benchTarget(c)
		for _, eng := range []preimage.Engine{preimage.EngineSuccessDriven, preimage.EngineBDD} {
			b.Run(fmt.Sprintf("xf%.2f/%s", xf, eng), func(b *testing.B) {
				benchPreimage(b, c, target, preimage.Options{Engine: eng})
			})
		}
	}
}

// BenchmarkParallelEnumerate — worker-count sweep for the guiding-path
// pool (internal/pool) behind the success-driven engine: the same
// preimage enumerated with 1/2/4/8 workers. The merged cover is
// bit-identical across worker counts (see internal/preimage's
// determinism suite), so ns/op differences are pure scheduling cost or
// speedup. On a single-core host the sweep measures the pool's overhead
// rather than parallel speedup; BENCH_2.json records which one it was.
func BenchmarkParallelEnumerate(b *testing.B) {
	suite := []gen.NamedCircuit{
		{Name: "slike2", Circuit: gen.SLike(gen.SLikeParams{Seed: 2, Inputs: 8, Latches: 8, Gates: 120})},
		{Name: "slike3", Circuit: gen.SLike(gen.SLikeParams{Seed: 3, Inputs: 10, Latches: 10, Gates: 220})},
		{Name: "mult6", Circuit: gen.MultCore(6)},
	}
	for _, nc := range suite {
		target := benchTarget(nc.Circuit)
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/w%d", nc.Name, w), func(b *testing.B) {
				benchPreimage(b, nc.Circuit, target,
					preimage.Options{Engine: preimage.EngineSuccessDriven, Parallel: w})
			})
		}
	}
}

// BenchmarkSimplify — the projection-safe preprocessor on vs off for all
// five engines over the Table 1 suite (one-step preimage) and, under
// /reach, the Table 3 reachability workloads with the success-driven
// engine. Covers are identical either way (internal/preimage's simplify
// equivalence suite pins this), so the on/off ns/op ratio is the pure
// win (or cost) of eliminating auxiliary variables before enumeration.
// The BDD engine never consumes the CNF; its pair is a no-op control.
func BenchmarkSimplify(b *testing.B) {
	engines := []preimage.Engine{
		preimage.EngineBlocking, preimage.EngineLifting, preimage.EngineDisjoint,
		preimage.EngineSuccessDriven, preimage.EngineBDD,
	}
	modes := []struct {
		name string
		mode simplify.Mode
	}{
		{"simplify=off", simplify.Off},
		{"simplify=on", simplify.On},
	}
	for _, nc := range gen.Suite() {
		target := benchTarget(nc.Circuit)
		for _, eng := range engines {
			for _, sm := range modes {
				b.Run(fmt.Sprintf("%s/%s/%s", nc.Name, eng, sm.name), func(b *testing.B) {
					opts := cappedOpts(eng)
					opts.Simplify = sm.mode
					benchPreimage(b, nc.Circuit, target, opts)
				})
			}
		}
	}
	reachSuite := []gen.NamedCircuit{
		{Name: "counter8", Circuit: gen.Counter(8, true, false)},
		{Name: "traffic", Circuit: gen.TrafficLight()},
		{Name: "slike1", Circuit: gen.SLike(gen.SLikeParams{Seed: 1, Inputs: 6, Latches: 6, Gates: 60})},
	}
	for _, nc := range reachSuite {
		target := benchTarget(nc.Circuit)
		for _, sm := range modes {
			b.Run(fmt.Sprintf("reach/%s/%s", nc.Name, sm.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, err := preimage.Reach(nc.Circuit, target, 6,
						preimage.Options{Engine: preimage.EngineSuccessDriven, Simplify: sm.mode})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable5 — BDD variable-order ablation (interleaved (s,s') pairs
// vs segregated blocks).
func BenchmarkTable5(b *testing.B) {
	suite := []gen.NamedCircuit{
		{Name: "counter12", Circuit: gen.Counter(12, true, false)},
		{Name: "gray6", Circuit: gen.GrayCounter(6)},
		{Name: "mult6", Circuit: gen.MultCore(6)},
	}
	for _, nc := range suite {
		target := benchTarget(nc.Circuit)
		for _, seg := range []bool{false, true} {
			name := nc.Name + "/interleaved"
			if seg {
				name = nc.Name + "/segregated"
			}
			b.Run(name, func(b *testing.B) {
				benchPreimage(b, nc.Circuit, target,
					preimage.Options{Engine: preimage.EngineBDD, BDDSegregatedOrder: seg})
			})
		}
	}
}

// BenchmarkTable4 — decision-order ablation for the success-driven engine.
func BenchmarkTable4(b *testing.B) {
	suite := []gen.NamedCircuit{
		{Name: "counter10", Circuit: gen.Counter(10, true, false)},
		{Name: "gray6", Circuit: gen.GrayCounter(6)},
		{Name: "slike1", Circuit: gen.SLike(gen.SLikeParams{Seed: 1, Inputs: 6, Latches: 6, Gates: 60})},
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
		target := benchTarget(nc.Circuit)
		for _, o := range orders {
			b.Run(fmt.Sprintf("%s/%s", nc.Name, o.name), func(b *testing.B) {
				benchPreimage(b, nc.Circuit, target, o.opts)
			})
		}
	}
}
