package main

import (
	"fmt"
	"hash/fnv"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"allsatpre/internal/allsat"
	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cnf"
	"allsatpre/internal/core"
	"allsatpre/internal/cube"
	"allsatpre/internal/gen"
	"allsatpre/internal/incr"
	"allsatpre/internal/lit"
	"allsatpre/internal/pool"
	"allsatpre/internal/preimage"
	"allsatpre/internal/simplify"
	"allsatpre/internal/stats"
	"allsatpre/internal/trans"
)

// preimage-oneshot population: SLike circuits with generator seeds
// oneshotBase.. and `oneshotVariants` seeded targets each.
const (
	oneshotBase     = 1000
	oneshotMembers  = 512
	oneshotVariants = 1
	oneshotInputs   = 8
	oneshotLatches  = 10
	oneshotGates    = 200
	// setupReps is how many set-ups a run times on each side of its
	// measured window; setup_s is the median of them all.
	setupReps = 5
	// warmOps is how many ops set-up runs to warm caches and the heap.
	warmOps = 8
)

// fingerprint identifies a state cover independently of cube order.
func fingerprint(cv *cube.Cover) uint64 {
	h := fnv.New64a()
	for _, k := range cv.SortedKeys() {
		h.Write([]byte(k))
		h.Write([]byte{','})
	}
	return h.Sum64()
}

func coverPatterns(cv *cube.Cover) []pattern {
	out := make([]pattern, 0, cv.Len())
	for _, c := range cv.Cubes() {
		p, err := parsePattern(c.String())
		if err != nil {
			panic(err)
		}
		out = append(out, p)
	}
	return out
}

// ---- preimage-oneshot ----

// oneshotResult is what one untraced op returned.
type oneshotResult struct {
	inst  int
	count string
	fp    uint64
	cover *cube.Cover // kept for the first op of each instance only
}

// oneshotOp is what a CLI `preimage` run does with its inputs: parse the
// BENCH text and the target patterns, then compute with default options.
func oneshotOp(in *instance) (*preimage.Result, error) {
	c, err := circuit.ParseBenchString(in.name, in.bench)
	if err != nil {
		return nil, err
	}
	return preimage.Compute(c, trans.TargetFromPatterns(len(c.Latches), in.patterns...), preimage.Options{})
}

func runOneshot(cfg runConfig) (*outcome, error) {
	var insts []*instance
	clock := &setupClock{setup: func() error {
		insts = slikeInstances(cfg.seed, "oneshot", oneshotBase, oneshotMembers, oneshotVariants,
			oneshotInputs, oneshotLatches, oneshotGates)
		warm := slikeInstances(warmSeed, "oneshot", oneshotBase, warmOps, oneshotVariants,
			oneshotInputs, oneshotLatches, oneshotGates)
		for _, in := range warm {
			if _, err := oneshotOp(in); err != nil {
				return err
			}
		}
		return nil
	}, teardown: func() { insts = nil }}
	if err := clock.rep(setupReps); err != nil {
		return nil, err
	}
	out := &outcome{}
	order := newPasses(cfg.seed, "oneshot", len(insts))

	// untimed runs the ops closed-loop for dur and keeps their results.
	untimed := func(dur time.Duration) ([]oneshotResult, []float64, e2eSample) {
		var results []oneshotResult
		var ops []opSample
		seen := make([]bool, len(insts))
		win := openWindow()
		n, elapsed := closedLoop(1, len(insts), dur, func(_, i int) {
			k := order.item(i)
			t0 := time.Now()
			res, err := oneshotOp(insts[k])
			t1 := time.Now()
			if err != nil {
				out.fail("%s: %v (input %s)", insts[k].name, err, saveInput(cfg, insts[k].name, insts[k].describe()))
				return
			}
			r := oneshotResult{inst: k, count: res.Count.String(), fp: fingerprint(res.States)}
			if !seen[k] {
				seen[k] = true
				r.cover = res.States
			}
			results = append(results, r)
			// The whole cover arrives at return: the first cube is the last.
			ops = append(ops, opSample{pass: i / len(insts), start: t0, end: t1, ttfc: ms(t1.Sub(t0)), cubes: res.States.Len()})
		})
		alloc, rssPeak := win.close()
		out.attempted += n
		s := e2eSample{ops: ops, elapsed: elapsed, alloc: alloc, peakRSS: rssPeak}
		return results, s.latencies(), s
	}

	if !cfg.trace {
		results, _, sample := untimed(cfg.seconds)
		if err := clock.rep(setupReps); err != nil {
			return nil, err
		}
		sample.setup = clock.median()
		checkOneshot(cfg, out, insts, results)
		out.metrics = sample.metrics()
		out.extra = sample.extras()
		return out, nil
	}

	// Traced: an untraced half gives the reference latencies and covers,
	// then a traced half replays the same ops stage by stage.
	results, lats, _ := untimed(cfg.seconds / 2)
	checkOneshot(cfg, out, insts, results)
	want := map[int]oneshotResult{}
	for _, r := range results {
		want[r.inst] = r
	}
	tr := newTracer(true)
	lv := layerValues{}
	var acc replayAcc
	var roots []float64
	n, _ := closedLoop(1, len(insts), cfg.seconds/2, func(_, i int) {
		k := order.item(i)
		in := insts[k]
		root := tr.begin(i, -1, "op", "oneshot")
		var c *circuit.Circuit
		var err error
		tr.do(i, root, "circuit.parse", func() { c, err = circuit.ParseBenchString(in.name, in.bench) })
		var sr *stagedResult
		if err == nil {
			target := trans.TargetFromPatterns(len(c.Latches), in.patterns...)
			sr, err = replaySuccess(tr, i, root, c, target, budget.Budget{}, nil)
		}
		tr.end(root)
		roots = append(roots, ms(tr.duration(root)))
		if err != nil {
			out.fail("%s: replay: %v (input %s)", in.name, err, saveInput(cfg, in.name, in.describe()))
			return
		}
		acc.add(sr)
		if w, ok := want[k]; ok && (w.count != sr.count.String() || w.fp != fingerprint(sr.states)) {
			out.fail("%s: replayed cover (count %s) differs from preimage.Compute's (count %s) (input %s)",
				in.name, sr.count, w.count, saveInput(cfg, in.name, in.describe()))
		}
	})
	out.attempted += n
	byName, _ := tr.aggregate()
	lv.spanMetrics(byName, n)
	acc.searchMs = selfMs(byName, "pool.enumerate")
	acc.fill(lv, n)
	inprocHarness(lv, byName, n, roots, lats)
	finishTrace(cfg, out, tr, lv)
	return out, nil
}

// selfMs sums the self time of the named spans in ms.
func selfMs(byName map[string]*spanStats, names ...string) float64 {
	t := 0.0
	for _, n := range names {
		if st := byName[n]; st != nil {
			t += ms(st.self)
		}
	}
	return t
}

// inprocHarness sets trace.coverage and trace.overhead for in-process
// workloads: traced are the root span durations, untraced the untraced
// op latencies (ms) of the same op mix.
func inprocHarness(lv layerValues, byName map[string]*spanStats, ops int, traced, untraced []float64) {
	stageSelf := time.Duration(0)
	for name, st := range byName {
		if name != "op" {
			stageSelf += st.self
		}
	}
	if u := mean(untraced); u > 0 {
		lv["trace.coverage"] = ms(stageSelf) / float64(max(ops, 1)) / u
		lv["trace.overhead"] = mean(traced) / u
	}
}

// checkOneshot verifies every op's cover: identical across repeats of an
// instance, equal to the BDD engine's, and consistent with the simulator
// on sampled states inside and outside it.
func checkOneshot(cfg runConfig, out *outcome, insts []*instance, results []oneshotResult) {
	first := map[int]oneshotResult{}
	for _, r := range results {
		if r.cover != nil {
			first[r.inst] = r
		}
	}
	for _, r := range results {
		f := first[r.inst]
		if r.count != f.count || r.fp != f.fp {
			in := insts[r.inst]
			out.fail("%s: repeated op returned a different cover (count %s vs %s) (input %s)",
				in.name, r.count, f.count, saveInput(cfg, in.name, in.describe()))
		}
	}
	for k, f := range first {
		in := insts[k]
		if msg := checkStateResult(in, f.cover, f.count, true, rngFor(cfg.seed, "oracle", k)); msg != "" {
			out.fail("%s: %s (input %s)", in.name, msg, saveInput(cfg, in.name, in.describe()))
		}
	}
}

// checkStateResult checks a complete state cover against the BDD
// engine's preimage and the simulator; a partial one (complete=false)
// only for soundness.
func checkStateResult(in *instance, cv *cube.Cover, count string, complete bool, rng *rand.Rand) string {
	o := newOracle(in.circ)
	target := mustPatterns(in.patterns)
	cubes := coverPatterns(cv)
	if complete {
		ref, err := preimage.Compute(in.circ, in.target(), preimage.Options{Engine: preimage.EngineBDD})
		if err != nil {
			return "reference BDD engine: " + err.Error()
		}
		if ref.Count.String() != count {
			return fmt.Sprintf("count %s, BDD engine says %s", count, ref.Count)
		}
		if !coverSet(o.nL, cubes).equal(coverSet(o.nL, coverPatterns(ref.States))) {
			return "cover differs from the BDD engine's state set"
		}
	}
	return o.checkStateCover(cubes, target, complete, rng, 8)
}

// ---- staged replay of preimage.Compute (success-driven engine) ----

// stagedResult is a staged replay's outcome.
type stagedResult struct {
	states  *cube.Cover
	count   *big.Int
	set     bdd.Ref
	hasSet  bool
	stats   allsat.Stats
	simp    simplify.Stats
	clauses int
	aborted bool
	reason  budget.Reason
}

// simplifyFrozen runs the projection-safe preprocessor with the
// projection variables frozen, as preimage.Compute does in auto mode.
func simplifyFrozen(f *cnf.Formula, vars []lit.Var) simplify.Stats {
	frozen := make([]bool, f.NumVars)
	for _, v := range vars {
		if int(v) < len(frozen) {
			frozen[v] = true
		}
	}
	return simplify.Run(f, func(v lit.Var) bool { return frozen[v] }, simplify.Options{}).Stats
}

// projectStates restricts a cover over the projection space to the state
// positions and reduces it, as preimage.Compute does.
func projectStates(cv *cube.Cover, projSpace, stateSpace *cube.Space, inst *trans.Instance) *cube.Cover {
	states := cube.NewCover(stateSpace)
	pos := make([]int, len(inst.StateVars))
	for i, v := range inst.StateVars {
		pos[i] = projSpace.PosOf(v)
	}
	for _, cb := range cv.Cubes() {
		sc := stateSpace.FullCube()
		for i, p := range pos {
			sc[i] = cb[p]
		}
		states.Add(sc)
	}
	states.Reduce()
	return states
}

// replaySuccess replays preimage.Compute for the success-driven engine
// with default options, one public call per stage, each in a span under
// parent. With share set it also exports the state set into that manager
// (what preimage.Reach asks Compute for).
func replaySuccess(tr *tracer, op, parent int, c *circuit.Circuit, target *cube.Cover, bud budget.Budget, share *bdd.Manager) (*stagedResult, error) {
	var inst *trans.Instance
	var err error
	tr.do(op, parent, "trans.instance", func() { inst, err = trans.NewInstance(c, target) })
	if err != nil {
		return nil, err
	}
	out := &stagedResult{clauses: len(inst.F.Clauses)}
	projVars, projNames := inst.OrderedProjection(false, false)
	projSpace := cube.NewNamedSpace(projVars, projNames)
	tr.do(op, parent, "simplify.run", func() { out.simp = simplifyFrozen(inst.F, projVars) })
	var pr *pool.Result
	tr.do(op, parent, "pool.enumerate", func() {
		pr = pool.Enumerate(inst.F, projSpace, pool.Options{Workers: 1, Core: core.DefaultOptions(), Budget: bud})
	})
	var cover *cube.Cover
	tr.do(op, parent, "bdd.isop", func() { cover = pr.Manager.ISOP(pr.Set, projSpace) })
	tr.do(op, parent, "bdd.count", func() { pr.Manager.SatCount(pr.Set) })
	stateSpace := preimage.StateSpace(c)
	tr.do(op, parent, "cube.reduce", func() { out.states = projectStates(cover, projSpace, stateSpace, inst) })
	var stateSet bdd.Ref
	tr.do(op, parent, "bdd.count", func() {
		stateSet = pr.Manager.ExistsVars(pr.Set, inst.InputVars)
		out.count = pr.Manager.SatCountIn(stateSet, inst.StateVars)
	})
	if share != nil {
		tr.do(op, parent, "bdd.export", func() {
			sub := make(map[lit.Var]lit.Var, len(inst.StateVars))
			for i, v := range inst.StateVars {
				sub[v] = lit.Var(i)
			}
			out.set = share.Import(pr.Manager.Export(stateSet).Rename(sub))
			out.hasSet = true
		})
	}
	out.stats = pr.Stats
	out.aborted, out.reason = pr.Aborted, pr.Reason
	pr.Release()
	return out, nil
}

// replayAcc sums search and kernel counters over replayed ops.
type replayAcc struct {
	ops                                  int
	clauses, clausesAfter, clausesBefore float64
	varsElim                             float64
	decisions, conflicts, props          float64
	memoHits, memoLookups                float64
	peakLearnts, peakNodes               float64
	cacheHits, cacheLookups, probes      float64
	uniqueLookups                        float64
	// searchMs is the total time spent in search spans, set by the
	// caller before fill.
	searchMs float64
}

func (a *replayAcc) add(sr *stagedResult) {
	a.ops++
	a.clauses += float64(sr.clauses)
	if sr.simp.Applied {
		a.clausesBefore += float64(sr.simp.ClausesBefore)
		a.clausesAfter += float64(sr.simp.ClausesAfter)
		a.varsElim += float64(sr.simp.VarsEliminated)
	}
	a.addStats(sr.stats)
}

func (a *replayAcc) addStats(st allsat.Stats) {
	a.decisions += float64(st.Decisions)
	a.conflicts += float64(st.Conflicts)
	a.props += float64(st.Propagations)
	a.memoHits += float64(st.CacheHits)
	a.memoLookups += float64(st.CacheLookups)
	a.peakLearnts += float64(st.PeakLearnts)
	a.peakNodes += float64(st.BDDNodes)
	a.cacheHits += float64(st.Kernel.CacheHits)
	a.cacheLookups += float64(st.Kernel.CacheLookups)
	a.probes += float64(st.Kernel.UniqueProbes)
	a.uniqueLookups += float64(st.Kernel.UniqueLookups)
}

// fill writes the counter metrics, per op over `ops` ops.
func (a *replayAcc) fill(lv layerValues, ops int) {
	per := func(x float64) float64 { return x / float64(max(ops, 1)) }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	lv["trans.cnf_clauses"] = ratio(a.clauses, float64(a.ops))
	lv["simplify.clause_ratio"] = ratio(a.clausesAfter, a.clausesBefore)
	lv["simplify.vars_eliminated"] = per(a.varsElim)
	lv["core.decisions"] = per(a.decisions)
	lv["core.conflicts"] = per(a.conflicts)
	lv["core.memo_hit_rate"] = ratio(a.memoHits, a.memoLookups)
	lv["sat.peak_learnts"] = per(a.peakLearnts)
	lv["bdd.peak_nodes"] = per(a.peakNodes)
	lv["bdd.cache_hit_rate"] = ratio(a.cacheHits, a.cacheLookups)
	lv["bdd.avg_probes"] = ratio(a.probes, a.uniqueLookups)
	lv["sat.propagations_per_ms"] = ratio(a.props, a.searchMs)
}

// ---- reach-fixpoint ----

// The reach population: deep-narrow circuits (many tiny steps) and
// wide-frontier ones. Each gets reachVariants targets constraining
// reachFix latches of a simulated reachable state. Which latches a
// variant constrains is fixed (how deep the search goes depends mostly
// on which latches are pinned, so this keeps the seeds comparable); the
// seed draws the state, and so the values.
const (
	reachVariants = 16
	reachFix      = 3
)

type reachCircuit struct {
	name string
	c    *circuit.Circuit
}

func reachPopulation() []reachCircuit {
	return []reachCircuit{
		{"counter8", gen.Counter(8, true, false)},
		{"gray8", gen.GrayCounter(8)},
		{"johnson12", gen.Johnson(12)},
		{"fifo5", gen.FIFOCtrl(5)},
		{"arb8", gen.Arbiter(8)},
	}
}

func reachInstances(seed int64) []*instance {
	var out []*instance
	for k, rc := range reachPopulation() {
		bench := circuit.BenchString(rc.c)
		for v := 0; v < reachVariants; v++ {
			st := simulatedState(rc.c, rngFor(seed, "reach", k*reachVariants+v), 20)
			positions := rngFor(0, "reach-positions", k*reachVariants+v).Perm(len(st))[:reachFix]
			out = append(out, &instance{
				name:     fmt.Sprintf("%s-t%d", rc.name, v),
				circ:     rc.c,
				bench:    bench,
				patterns: []string{fixAt(st, positions)},
			})
		}
	}
	return out
}

// reachOp is what a CLI `reach` run does: parse, then iterate preimages
// to the fixpoint on the fresh or the incremental path.
func reachOp(in *instance, incremental bool) (*preimage.ReachResult, error) {
	c, err := circuit.ParseBenchString(in.name, in.bench)
	if err != nil {
		return nil, err
	}
	return preimage.Reach(c, trans.TargetFromPatterns(len(c.Latches), in.patterns...), 0,
		preimage.Options{Incremental: incremental})
}

type reachSummary struct {
	op       int
	inst     int
	incr     bool
	counts   string // frontier counts, comma-joined
	all      string
	fixpoint bool
	steps    int
}

func summarizeReach(k int, incremental bool, counts []*big.Int, all *big.Int, fixpoint bool) reachSummary {
	parts := make([]string, len(counts))
	for i, c := range counts {
		parts[i] = c.String()
	}
	return reachSummary{inst: k, incr: incremental, counts: strings.Join(parts, ","), all: all.String(), fixpoint: fixpoint}
}

func runReach(cfg runConfig) (*outcome, error) {
	var insts []*instance
	clock := &setupClock{setup: func() error {
		insts = reachInstances(cfg.seed)
		warm := reachInstances(warmSeed)
		for i := 0; i < warmOps; i++ {
			if _, err := reachOp(warm[i%len(warm)], i%2 == 1); err != nil {
				return err
			}
		}
		return nil
	}, teardown: func() { insts = nil }}
	if err := clock.rep(setupReps); err != nil {
		return nil, err
	}
	out := &outcome{}
	nOps := 2 * len(insts) // each instance on both paths
	order := newPasses(cfg.seed, "reach", nOps)

	untimed := func(dur time.Duration) ([]reachSummary, []float64, e2eSample) {
		var sums []reachSummary
		var ops []opSample
		win := openWindow()
		n, elapsed := closedLoop(1, nOps, dur, func(_, i int) {
			j := order.item(i)
			k, inc := j/2, j%2 == 1
			t0 := time.Now()
			res, err := reachOp(insts[k], inc)
			t1 := time.Now()
			if err != nil {
				out.fail("%s: %v (input %s)", insts[k].name, err, saveInput(cfg, insts[k].name, insts[k].describe()))
				return
			}
			s := summarizeReach(k, inc, res.FrontierCounts, res.AllCount, res.Fixpoint)
			s.steps = res.Steps
			sums = append(sums, s)
			cubes := 0
			for _, f := range res.Frontiers[1:] {
				cubes += f.Len()
			}
			ops = append(ops, opSample{pass: i / nOps, start: t0, end: t1, ttfc: ms(t1.Sub(t0)), cubes: cubes})
		})
		alloc, rssPeak := win.close()
		out.attempted += n
		s := e2eSample{ops: ops, elapsed: elapsed, alloc: alloc, peakRSS: rssPeak}
		return sums, s.latencies(), s
	}

	if !cfg.trace {
		sums, _, sample := untimed(cfg.seconds)
		if err := clock.rep(setupReps); err != nil {
			return nil, err
		}
		sample.setup = clock.median()
		checkReach(cfg, out, insts, sums)
		out.metrics = sample.metrics()
		out.extra = sample.extras()
		return out, nil
	}

	sums, lats, _ := untimed(cfg.seconds / 2)
	checkReach(cfg, out, insts, sums)
	want := map[int]reachSummary{}
	for _, s := range sums {
		want[s.inst] = s
	}
	tr := newTracer(true)
	lv := layerValues{}
	var acc replayAcc
	var roots []float64
	var steps, incrOps, kept, retired, invalidated float64
	n, _ := closedLoop(1, nOps, cfg.seconds/2, func(_, i int) {
		j := order.item(i)
		k, inc := j/2, j%2 == 1
		in := insts[k]
		root := tr.begin(i, -1, "op", map[bool]string{false: "fresh", true: "incremental"}[inc])
		var c *circuit.Circuit
		var err error
		tr.do(i, root, "circuit.parse", func() { c, err = circuit.ParseBenchString(in.name, in.bench) })
		var s reachSummary
		if err == nil {
			target := trans.TargetFromPatterns(len(c.Latches), in.patterns...)
			if inc {
				reg := stats.NewRegistry("replay")
				s, err = replayReachIncremental(tr, i, root, c, target, reg, &acc)
				incrOps++
				kept += regValue(reg, "incr.learned-kept")
				retired += regValue(reg, "incr.clauses-retired")
				invalidated += regValue(reg, "incr.memo-invalidated")
			} else {
				s, err = replayReachFresh(tr, i, root, c, target, &acc)
			}
		}
		tr.end(root)
		roots = append(roots, ms(tr.duration(root)))
		if err != nil {
			out.fail("%s: replay: %v (input %s)", in.name, err, saveInput(cfg, in.name, in.describe()))
			return
		}
		steps += float64(s.steps)
		if w, ok := want[k]; ok && (w.counts != s.counts || w.all != s.all || w.fixpoint != s.fixpoint) {
			out.fail("%s: replayed reach (counts %s) differs from preimage.Reach's (counts %s) (input %s)",
				in.name, s.counts, w.counts, saveInput(cfg, in.name, in.describe()))
		}
	})
	out.attempted += n
	byName, _ := tr.aggregate()
	lv.spanMetrics(byName, n)
	acc.searchMs = selfMs(byName, "pool.enumerate", "incr.step")
	acc.fill(lv, n)
	perSpan := func(name string) float64 {
		if st := byName[name]; st != nil && st.count > 0 {
			return ms(st.incl) / float64(st.count)
		}
		return 0
	}
	lv["incr.step_ms"] = perSpan("incr.step")
	lv["reach.fresh_step_ms"] = perSpan("reach.fresh_step")
	lv["reach.frontier_ms"] = perSpan("reach.frontier")
	lv["reach.steps"] = steps / float64(max(n, 1))
	if incrOps > 0 {
		lv["incr.learned_kept"] = kept / incrOps
		lv["incr.clauses_retired"] = retired / incrOps
		lv["incr.memo_invalidated"] = invalidated / incrOps
	}
	inprocHarness(lv, byName, n, roots, lats)
	finishTrace(cfg, out, tr, lv)
	return out, nil
}

// regValue reads one metric from a stats registry snapshot.
func regValue(reg *stats.Registry, key string) float64 {
	for _, kv := range reg.Snapshot().Metrics {
		if kv.Key == key {
			v, _ := strconv.ParseFloat(kv.Value, 64)
			return v
		}
	}
	return 0
}

// replayReachFresh replays preimage.Reach's fresh path: one staged
// preimage per step into a shared manager, then the frontier BDD work.
func replayReachFresh(tr *tracer, op, parent int, c *circuit.Circuit, target *cube.Cover, acc *replayAcc) (reachSummary, error) {
	stateSpace := preimage.StateSpace(c)
	man := bdd.NewOrdered(stateSpace.Vars())
	targetC := cube.NewCover(stateSpace)
	for _, cb := range target.Cubes() {
		targetC.Add(cb.Clone())
	}
	visited := man.FromCover(targetC)
	counts := []*big.Int{man.SatCount(visited)}
	frontier := targetC
	fixpoint := false
	steps := 0
	for {
		if frontier.Len() == 0 {
			fixpoint = true
			break
		}
		var sr *stagedResult
		var err error
		stepID := tr.begin(op, parent, "reach.fresh_step", "")
		sr, err = replaySuccess(tr, op, stepID, c, frontier, budget.Budget{}, man)
		tr.end(stepID)
		if err != nil {
			return reachSummary{}, err
		}
		steps++
		acc.add(sr)
		done := false
		tr.do(op, parent, "reach.frontier", func() {
			newSet := man.Diff(sr.set, visited)
			if newSet == bdd.False {
				done = true
				return
			}
			frontier = man.ISOP(newSet, stateSpace)
			visited = man.Or(visited, newSet)
			counts = append(counts, man.SatCount(newSet))
		})
		if done {
			fixpoint = true
			break
		}
	}
	s := summarizeReach(0, false, counts, man.SatCount(visited), fixpoint)
	s.steps = steps
	return s, nil
}

// replayReachIncremental replays preimage.Reach's incremental path over
// one incr session.
func replayReachIncremental(tr *tracer, op, parent int, c *circuit.Circuit, target *cube.Cover, reg *stats.Registry, acc *replayAcc) (reachSummary, error) {
	var sess *incr.Session
	var err error
	tr.do(op, parent, "incr.session", func() {
		sess, err = incr.NewBackward(c, incr.Options{Workers: 1, Core: core.DefaultOptions(), Stats: reg})
	})
	if err != nil {
		return reachSummary{}, err
	}
	defer sess.Close()
	stateSpace := preimage.StateSpace(c)
	man := sess.Manager()
	cnfSpace := sess.StateSpace()
	stateVars := sess.StateVars()
	targetC := cube.NewCover(stateSpace)
	for _, cb := range target.Cubes() {
		targetC.Add(cb.Clone())
	}
	visited := man.FromCover(sess.Instance().RetargetCover(targetC))
	counts := []*big.Int{man.SatCountIn(visited, stateVars)}
	frontier := targetC
	fixpoint := false
	steps := 0
	for {
		if frontier.Len() == 0 {
			fixpoint = true
			break
		}
		var st *incr.StepResult
		tr.do(op, parent, "incr.step", func() { st, err = sess.Step(frontier) })
		if err != nil {
			return reachSummary{}, err
		}
		steps++
		acc.addStats(st.Stats)
		done := false
		tr.do(op, parent, "reach.frontier", func() {
			newSet := man.Diff(sess.StateSet(st.Set), visited)
			if newSet == bdd.False {
				done = true
				return
			}
			exact := man.ISOP(newSet, cnfSpace)
			frontier = cube.NewCover(stateSpace)
			for _, cb := range exact.Cubes() {
				frontier.Add(cb.Clone())
			}
			visited = man.Or(visited, newSet)
			counts = append(counts, man.SatCountIn(newSet, stateVars))
		})
		if done {
			fixpoint = true
			break
		}
	}
	s := summarizeReach(0, true, counts, man.SatCountIn(visited, stateVars), fixpoint)
	s.steps = steps
	return s, nil
}

// checkReach compares every op's frontier counts with an explicit-state
// backward breadth-first search over the simulator's transition graph.
func checkReach(cfg runConfig, out *outcome, insts []*instance, sums []reachSummary) {
	graphs := map[*circuit.Circuit]*predGraph{}
	want := map[int]string{}
	for _, s := range sums {
		in := insts[s.inst]
		w, ok := want[s.inst]
		if !ok {
			o := newOracle(in.circ)
			g := graphs[in.circ]
			if g == nil {
				g = o.predecessors()
				graphs[in.circ] = g
			}
			layers := g.layers(o, mustPatterns(in.patterns))
			total := new(big.Int)
			parts := make([]string, len(layers))
			for i, l := range layers {
				parts[i] = l.String()
				total.Add(total, l)
			}
			w = strings.Join(parts, ",") + "|" + total.String()
			want[s.inst] = w
		}
		if got := s.counts + "|" + s.all; got != w || !s.fixpoint {
			out.fail("%s (incremental=%v): frontier counts|total %s (fixpoint %v), explicit-state BFS says %s (input %s)",
				in.name, s.incr, got, s.fixpoint, w, saveInput(cfg, in.name, in.describe()))
		}
	}
}
