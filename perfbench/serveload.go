package main

import (
	"fmt"
	"math/big"
	"math/bits"
	"net/url"
	"sort"
	"sync"
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
	"allsatpre/internal/preimage"
	"allsatpre/internal/simplify"
	"allsatpre/internal/trans"
)

// reqKind is one request class of an HTTP workload's traffic mix; a
// pass sends `weight` requests of the class per instance (0 means 1).
type reqKind struct {
	class  string
	path   string
	query  url.Values
	weight int
}

// httpOp is one request of the mix: an instance and a request class.
type httpOp struct {
	inst int
	kind int
}

// httpRecord is one completed request.
type httpRecord struct {
	op   int // global op index
	key  httpOp
	resp response
}

// httpLoad is the shared driver of the two HTTP workloads.
type httpLoad struct {
	insts []*instance
	// warm is the instance set-up warms the server with: a member of the
	// workload's population with a target drawn from warmSeed, so the
	// pool warms up to the sizes the run uses while set-up time does not
	// depend on the targets the run's seed draws.
	warm  *instance
	kinds []reqKind
	// body returns the request body of an instance for request class j.
	body func(in *instance, j int) string
	// query adds per-instance parameters (the target) to a class's query.
	query func(in *instance, j int) url.Values
	svc   *service
	order *passes
	// clients is the number of concurrent closed-loop clients.
	clients int
}

// slots lists the class of each request a pass sends per instance.
func (h *httpLoad) slots() []int {
	var out []int
	for j, k := range h.kinds {
		for w := 0; w < max(k.weight, 1); w++ {
			out = append(out, j)
		}
	}
	return out
}

func (h *httpLoad) ops() int { return len(h.insts) * len(h.slots()) }

func (h *httpLoad) opAt(i int) httpOp {
	slots := h.slots()
	j := h.order.item(i)
	return httpOp{inst: j / len(slots), kind: slots[j%len(slots)]}
}

func (h *httpLoad) send(op httpOp) response { return h.sendTo(h.insts[op.inst], op.kind) }

// sendTo sends instance in as a request of class j.
func (h *httpLoad) sendTo(in *instance, j int) response {
	k := h.kinds[j]
	q := url.Values{}
	for key, vs := range k.query {
		q[key] = vs
	}
	for key, vs := range h.query(in, j) {
		q[key] = vs
	}
	return h.svc.post(k.path, q, h.body(in, j))
}

// setupClock returns the clock of the workload's set-up, which builds
// the inputs (build fills h.insts and h.warm), starts the service and
// warms it with one request of each class on h.warm.
func (h *httpLoad) setupClock(build func() error) *setupClock {
	return &setupClock{setup: func() error {
		if err := build(); err != nil {
			return err
		}
		svc, err := startService(h.clients)
		if err != nil {
			return err
		}
		h.svc = svc
		for j := range h.kinds {
			r := h.sendTo(h.warm, j)
			if f := r.failure(); f != "" {
				return fmt.Errorf("warm-up %s request: %s", h.kinds[j].class, f)
			}
		}
		return nil
	}, teardown: func() { h.svc.stop() }}
}

// run drives the mix closed-loop from h.clients clients for dur. With a
// tracer it also records a span per request, split at the first byte.
func (h *httpLoad) run(dur time.Duration, tr *tracer) ([]httpRecord, e2eSample) {
	var mu sync.Mutex
	var recs []httpRecord
	win := openWindow()
	_, elapsed := closedLoop(h.clients, h.ops(), dur, func(_, i int) {
		op := h.opAt(i)
		var r response
		if tr == nil {
			r = h.send(op)
		} else {
			root := tr.begin(i, -1, "op", h.kinds[op.kind].class)
			r = h.send(op)
			tr.end(root)
			// The request's own timestamps split it at the first byte.
			tr.mu.Lock()
			start := tr.spans[root].Start
			tr.spans = append(tr.spans,
				span{Name: "server.ttfb", Op: i, ID: len(tr.spans), Parent: root, Start: start, End: start + int64(r.ttfb)},
				span{Name: "server.stream", Op: i, ID: len(tr.spans) + 1, Parent: root, Start: start + int64(r.ttfb), End: start + int64(r.total)})
			tr.mu.Unlock()
		}
		mu.Lock()
		recs = append(recs, httpRecord{op: i, key: op, resp: r})
		mu.Unlock()
	})
	alloc, rssPeak := win.close()
	s := e2eSample{elapsed: elapsed, alloc: alloc, peakRSS: rssPeak}
	for _, rec := range recs {
		ttfc := -1.0
		if len(rec.resp.cubes) > 0 {
			ttfc = ms(rec.resp.ttfc)
		}
		s.ops = append(s.ops, opSample{pass: rec.op / h.ops(), start: rec.resp.sent, end: rec.resp.sent.Add(rec.resp.total),
			ttfc: ttfc, cubes: len(rec.resp.cubes)})
	}
	return recs, s
}

// classLatencies reports the latency percentiles of each request class.
func (h *httpLoad) classLatencies(recs []httpRecord) []metric {
	by := map[int][]float64{}
	for _, r := range recs {
		by[r.key.kind] = append(by[r.key.kind], ms(r.resp.total))
	}
	var out []metric
	for j, k := range h.kinds {
		out = append(out,
			metric{"latency_p50_ms." + k.class, "ms", quantile(by[j], 0.5), len(by[j])},
			metric{"latency_p90_ms." + k.class, "ms", quantile(by[j], 0.9), len(by[j])})
	}
	return out
}

// tracedPhases runs the mix untraced for half of the window (the
// reference latencies), then traced for the other half, checks both, and
// fills the server-side per-layer metrics of the traced half.
func (h *httpLoad) tracedPhases(cfg runConfig, out *outcome, check func([]httpRecord)) (recsA, recsB []httpRecord, tr *tracer, lv layerValues) {
	recsA, _ = h.run(cfg.seconds/2, nil)
	out.attempted += len(recsA)
	check(recsA)
	tr = newTracer(false)
	before := snapshot(h.svc.reg)
	recsB, _ = h.run(cfg.seconds/2, tr)
	after := snapshot(h.svc.reg)
	out.attempted += len(recsB)
	check(recsB)

	lv = layerValues{}
	serverLayers(lv, before, after, len(recsB))
	var ttfb, streamMs []float64
	var cubes, bytes float64
	for _, r := range recsB {
		ttfb = append(ttfb, ms(r.resp.ttfb))
		streamMs = append(streamMs, ms(r.resp.total-r.resp.ttfb))
		cubes += float64(len(r.resp.cubes))
		bytes += float64(r.resp.bytes)
	}
	lv["server.ttfb_ms"] = mean(ttfb)
	lv["server.stream_ms"] = mean(streamMs)
	if cubes > 0 {
		lv["server.bytes_per_cube"] = bytes / cubes
	}
	return recsA, recsB, tr, lv
}

// meanLatencyByKey averages untraced latencies per (instance, class).
func meanLatencyByKey(recs []httpRecord) map[httpOp]float64 {
	sum := map[httpOp]float64{}
	cnt := map[httpOp]float64{}
	for _, r := range recs {
		sum[r.key] += ms(r.resp.total)
		cnt[r.key]++
	}
	for k := range sum {
		sum[k] /= cnt[k]
	}
	return sum
}

// replayOrder returns the traced requests in the order they were issued;
// the replays walk it until their time allowance runs out.
func replayOrder(recs []httpRecord) []httpRecord {
	out := append([]httpRecord(nil), recs...)
	sort.Slice(out, func(i, j int) bool { return out[i].op < out[j].op })
	return out
}

// httpOverhead is the mean traced request latency over the mean
// untraced one.
func httpOverhead(tr *tracer, untraced []httpRecord) float64 {
	var rootMs, untracedMs []float64
	for _, sp := range tr.spans {
		if sp.Name == "op" {
			rootMs = append(rootMs, ms(time.Duration(sp.End-sp.Start)))
		}
	}
	for _, r := range untraced {
		untracedMs = append(untracedMs, ms(r.resp.total))
	}
	return mean(rootMs) / mean(untracedMs)
}

// ---- serve-stream ----

// serve-stream population: SLike circuits small enough (state + input
// bits) for the oracle to compute the exact solution set by simulation.
// Five targets per circuit: with two, which targets a seed drew moved
// the run's throughput by up to a fifth, and with three by about a tenth.
const (
	streamBase     = 2000
	streamMembers  = 24
	streamVariants = 5
	streamInputs   = 8
	streamLatches  = 10
	streamGates    = 200
)

// streamCap is the max-cubes cap the streaming classes ask for. Stream
// sizes over the population run from a handful of cubes to tens of
// thousands; the cap keeps one long stream from setting a run's
// throughput, as a client paging through results would. At 1000 most
// disjoint streams end on the cap, so their latencies cluster.
const streamCap = 1000

// streamClients is the number of serve-stream clients. One client, not
// two: on a 2-vCPU host the 2-worker classes and the server/client
// streaming pipeline already keep both CPUs busy, and a second client
// added queueing (time to first cube doubled) whose length followed
// other tenants' load.
const streamClients = 1

// streamKinds is the serve-stream mix. The disjoint engine, the
// endpoint's default, gets four times the weight of each other class, so
// its cluster of capped streams holds the median request; with equal
// weights the median fell in the gap between the fast classes and the
// slow ones, where a small shift in either moved it a lot.
var streamKinds = []reqKind{
	{"disjoint", "/v1/enumerate", url.Values{"engine": {"disjoint"}, "max-cubes": {fmt.Sprint(streamCap)}}, 4},
	{"lifting-w2", "/v1/enumerate", url.Values{"engine": {"lifting"}, "workers": {"2"}, "max-cubes": {fmt.Sprint(streamCap)}}, 1},
	{"success-w2", "/v1/enumerate", url.Values{"engine": {"success"}, "workers": {"2"}}, 1},
	{"preimage-bdd", "/v1/preimage", url.Values{"engine": {"bdd"}}, 1},
}

func runServeStream(cfg runConfig) (*outcome, error) {
	h := &httpLoad{kinds: streamKinds, clients: streamClients}
	build := func() error {
		h.insts = slikeInstances(cfg.seed, "stream", streamBase, streamMembers, streamVariants,
			streamInputs, streamLatches, streamGates)
		h.warm = slikeInstances(warmSeed, "stream", streamBase, 1, 1, streamInputs, streamLatches, streamGates)[0]
		for _, in := range append([]*instance{h.warm}, h.insts...) {
			ti, err := trans.NewInstance(in.circ, in.target())
			if err != nil {
				return err
			}
			// Projected onto state then input variables, so cube position
			// i < L is latch i and L+j is input j.
			in.dimacs = cnf.DimacsString(ti.F, ti.FullSpace.Vars())
		}
		return nil
	}
	h.body = func(in *instance, j int) string {
		if streamKinds[j].path == "/v1/preimage" {
			return in.bench
		}
		return in.dimacs
	}
	h.query = func(in *instance, j int) url.Values {
		if streamKinds[j].path == "/v1/preimage" {
			return url.Values{"target": in.patterns}
		}
		return nil
	}
	clock := h.setupClock(build)
	if err := clock.rep(setupReps); err != nil {
		return nil, err
	}
	// The set-ups after the window replace h.svc; stop the last one.
	defer func() { h.svc.stop() }()
	h.order = newPasses(cfg.seed, "stream", h.ops())
	out := &outcome{}

	if !cfg.trace {
		recs, s := h.run(cfg.seconds, nil)
		if err := clock.rep(setupReps); err != nil {
			return nil, err
		}
		s.setup = clock.median()
		out.attempted += len(recs)
		checkStream(cfg, out, h, recs)
		out.metrics = s.metrics()
		out.extra = append(s.extras(), h.classLatencies(recs)...)
		return out, nil
	}

	check := func(recs []httpRecord) { checkStream(cfg, out, h, recs) }
	recsA, recsB, tr, lv := h.tracedPhases(cfg, out, check)
	var disjStreamMs, disjCubes float64
	for _, r := range recsB {
		if streamKinds[r.key.kind].class == "disjoint" {
			disjStreamMs += ms(r.resp.total - r.resp.ttfb)
			disjCubes += float64(len(r.resp.cubes))
		}
	}

	// In-process replays of the same ops, one at a time, so each stage's
	// time and allocations are its own.
	tr.allocs = true
	untraced := meanLatencyByKey(recsA)
	var acc replayAcc
	var coverage []float64
	var nextUs, rawCubes, disjReplays float64
	stop := time.Now().Add(cfg.seconds / 3)
	replayed := 0
	want := map[int]streamTruth{}
	for _, rec := range replayOrder(recsB) {
		if time.Now().After(stop) && replayed >= len(streamKinds) {
			break
		}
		in := h.insts[rec.key.inst]
		class := streamKinds[rec.key.kind].class
		id := len(tr.spans)
		root := tr.begin(rec.op, -1, "replay", class)
		got, cubes, st, err := replayStream(tr, rec.op, root, in, in.dimacs, class)
		tr.end(root)
		replayed++
		if err != nil {
			out.fail("%s %s: replay: %v (input %s)", in.name, class, err, saveInput(cfg, in.name, in.describe()))
			continue
		}
		acc.addStats(st)
		truth, ok := want[rec.key.inst]
		if !ok {
			truth = streamTruthOf(in)
			want[rec.key.inst] = truth
		}
		expect := truth.pairs
		if class == "preimage-bdd" {
			expect = truth.states
		}
		if cubes < streamCap && got.String() != fmt.Sprint(expect.count()) {
			out.fail("%s %s: replayed count %s, simulator says %d (input %s)", in.name, class, got, expect.count(),
				saveInput(cfg, in.name, in.describe()))
		}
		self := 0.0
		for _, sp := range tr.spans[id+1:] {
			self += ms(time.Duration(sp.End - sp.Start))
		}
		if u := untraced[rec.key]; u > 0 {
			coverage = append(coverage, self/u)
		}
		if class == "disjoint" {
			for _, sp := range tr.spans[id+1:] {
				if sp.Name == "allsat.enumerate" {
					nextUs += float64(sp.End-sp.Start) / 1e3
				}
			}
			rawCubes += float64(cubes)
			disjReplays++
		}
	}
	out.attempted += replayed
	byName, byClass := tr.aggregate()
	lv.spanMetrics(byName, replayed)
	acc.searchMs = selfMs(byName, "allsat.enumerate", "pool.enumerate")
	acc.fill(lv, replayed)
	if rawCubes > 0 {
		lv["allsat.next_us"] = nextUs / rawCubes
		lv["allsat.raw_cubes"] = rawCubes / disjReplays
		if disjCubes > 0 {
			lv["server.overhead_per_cube_us"] = disjStreamMs*1e3/disjCubes - lv["allsat.next_us"]
		}
	}
	lv["trace.coverage"] = mean(coverage)
	lv["trace.overhead"] = httpOverhead(tr, recsA)
	finishTrace(cfg, out, tr, lv)
	out.notes = append(out.notes, classTable(byClass)...)
	return out, nil
}

// streamTruth is the exact solution set of one serve-stream instance.
type streamTruth struct {
	pairs, states bitset
}

func streamTruthOf(in *instance) streamTruth {
	o := newOracle(in.circ)
	pairs := o.pairSet(mustPatterns(in.patterns))
	return streamTruth{pairs: pairs, states: o.statesOf(pairs)}
}

// checkStream compares every streamed cover with the exact set the
// simulator gives: (state, input) pairs for /v1/enumerate, states for
// /v1/preimage. A stream cut by its cube cap must carry exactly the cap
// and only genuine solutions; any other stream must carry all of them.
// Disjoint streams must also be pairwise disjoint.
func checkStream(cfg runConfig, out *outcome, h *httpLoad, recs []httpRecord) {
	truths := map[int]streamTruth{}
	for _, rec := range recs {
		in := h.insts[rec.key.inst]
		kind := h.kinds[rec.key.kind]
		fail := func(msg string) {
			out.fail("%s %s: %s (input %s)", in.name, kind.class, msg, saveInput(cfg, in.name+"-"+kind.class, in.describe()))
		}
		if f := rec.resp.failure(); f != "" {
			fail(f)
			continue
		}
		sum := rec.resp.summary
		capped := kind.query.Get("max-cubes") != ""
		if sum.Truncated && !(capped && sum.Reason == budget.Cubes.String() && len(rec.resp.cubes) == streamCap) {
			fail(fmt.Sprintf("truncated (%s) after %d cubes, but the only limit was a cap of %s cubes",
				sum.Reason, len(rec.resp.cubes), kind.query.Get("max-cubes")))
			continue
		}
		t, ok := truths[rec.key.inst]
		if !ok {
			t = streamTruthOf(in)
			truths[rec.key.inst] = t
		}
		o := newOracle(in.circ)
		want, width := t.pairs, o.nL+o.nI
		if kind.class == "preimage-bdd" {
			want, width = t.states, o.nL
		}
		got := coverSet(width, rec.resp.cubes)
		if sum.Truncated {
			if !got.subsetOf(want) {
				fail("partial stream carries non-solutions")
				continue
			}
		} else if !got.equal(want) {
			fail("streamed cover differs from the simulator's solution set")
			continue
		}
		if c := sum.Count; c != "" && c != fmt.Sprint(want.count()) {
			fail(fmt.Sprintf("summary count %s, simulator says %d", c, want.count()))
		}
		if kind.class == "disjoint" {
			total := 0
			for _, p := range rec.resp.cubes {
				total += 1 << (width - bits.OnesCount64(p.care))
			}
			if total != got.count() {
				fail("disjoint stream has overlapping cubes")
			}
		}
	}
}

// replayStream replays one serve-stream request in-process through the
// same public calls the handler makes, one span per stage. It returns
// the solution count and the number of cubes the engine produced.
func replayStream(tr *tracer, op, root int, in *instance, dimacs, class string) (*big.Int, int, allsat.Stats, error) {
	if class == "preimage-bdd" {
		var c *circuit.Circuit
		var err error
		tr.do(op, root, "circuit.parse", func() { c, err = circuit.ParseBenchString(in.name, in.bench) })
		if err != nil {
			return nil, 0, allsat.Stats{}, err
		}
		var res *preimage.Result
		tr.do(op, root, "bdd.preimage", func() {
			res, err = preimage.Compute(c, trans.TargetFromPatterns(len(c.Latches), in.patterns...),
				preimage.Options{Engine: preimage.EngineBDD})
		})
		if err != nil {
			return nil, 0, allsat.Stats{}, err
		}
		return res.Count, res.States.Len(), res.Stats, nil
	}
	var f *cnf.Formula
	var proj []lit.Var
	var err error
	tr.do(op, root, "cnf.parse", func() { f, proj, err = cnf.ParseDimacsString(dimacs) })
	if err != nil {
		return nil, 0, allsat.Stats{}, err
	}
	space := cube.NewSpace(proj)
	if class == "success-w2" {
		// The handler hands the raw CNF to the pool: no simplify stage.
		var pr *pool.Result
		tr.do(op, root, "pool.enumerate", func() {
			pr = pool.Enumerate(f, space, pool.Options{Workers: 2, Core: core.DefaultOptions()})
		})
		var cv *cube.Cover
		tr.do(op, root, "bdd.isop", func() { cv = pr.Manager.ISOP(pr.Set, space) })
		var n *big.Int
		tr.do(op, root, "bdd.count", func() { n = pr.Manager.SatCount(pr.Set) })
		st := pr.Stats
		pr.Release()
		return n, cv.Len(), st, nil
	}
	sf := f.Clone()
	tr.do(op, root, "simplify.run", func() { simplifyFrozen(sf, proj) })
	opts := allsat.Options{Simplify: simplify.Off}
	var it streamIter
	cover := cube.NewCover(space)
	tr.do(op, root, "allsat.enumerate", func() {
		if class == "disjoint" {
			it = allsat.NewDisjointIterator(sf, space, opts)
		} else {
			opts.Workers = 2
			it = allsat.NewParallelIterator(sf, space, opts, true)
		}
		for cover.Len() < streamCap {
			c, ok := it.Next()
			if !ok {
				break
			}
			cover.Add(c)
		}
		it.Close()
	})
	if r := it.Reason(); r != budget.None && cover.Len() < streamCap {
		return nil, 0, allsat.Stats{}, fmt.Errorf("enumeration stopped: %v", r)
	}
	var n *big.Int
	tr.do(op, root, "bdd.count", func() {
		m := bdd.NewOrdered(space.Vars())
		n = m.SatCount(m.FromCover(cover))
	})
	return n, cover.Len(), it.Stats(), nil
}

// streamIter is the iterator surface the handler drives.
type streamIter interface {
	Next() (cube.Cube, bool)
	Reason() budget.Reason
	Stats() allsat.Stats
	Close()
}
