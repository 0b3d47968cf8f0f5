package main

import (
	"fmt"
	"net/url"
	"time"

	"allsatpre/internal/allsat"
	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cube"
	"allsatpre/internal/preimage"
	"allsatpre/internal/simplify"
	"allsatpre/internal/trans"
)

// serve-deadline population: SLike circuits whose natural solve time on
// the disjoint, blocking and lifting engines exceeds deadlineTimeout, so
// most requests end on their deadline.
const (
	deadlineBase     = 3000
	deadlineMembers  = 13
	deadlineVariants = 4
	deadlineInputs   = 14
	deadlineLatches  = 16
	deadlineGates    = 600
	deadlineTimeout  = 50 * time.Millisecond
	deadlineClients  = 2
)

var deadlineKinds = []reqKind{
	{"disjoint", "/v1/preimage", url.Values{"engine": {"disjoint"}}, 1},
	{"blocking", "/v1/preimage", url.Values{"engine": {"blocking"}}, 1},
	{"lifting", "/v1/preimage", url.Values{"engine": {"lifting"}}, 1},
	{"success", "/v1/preimage", url.Values{"engine": {"success"}}, 1},
}

// lateMs is how long after its deadline a request's last byte arrived.
func lateMs(r response) float64 { return max(0, ms(r.total-deadlineTimeout)) }

func runServeDeadline(cfg runConfig) (*outcome, error) {
	h := &httpLoad{kinds: deadlineKinds, clients: deadlineClients}
	build := func() error {
		h.insts = slikeInstances(cfg.seed, "deadline", deadlineBase, deadlineMembers, deadlineVariants,
			deadlineInputs, deadlineLatches, deadlineGates)
		h.warm = slikeInstances(warmSeed, "deadline", deadlineBase, 1, 1, deadlineInputs, deadlineLatches, deadlineGates)[0]
		return nil
	}
	h.body = func(in *instance, _ int) string { return in.bench }
	h.query = func(in *instance, _ int) url.Values {
		return url.Values{"target": in.patterns, "timeout": {deadlineTimeout.String()}}
	}
	clock := h.setupClock(build)
	if err := clock.rep(setupReps); err != nil {
		return nil, err
	}
	// The set-ups after the window replace h.svc; stop the last one.
	defer func() { h.svc.stop() }()
	h.order = newPasses(cfg.seed, "deadline", h.ops())
	out := &outcome{}

	if !cfg.trace {
		recs, s := h.run(cfg.seconds, nil)
		if err := clock.rep(setupReps); err != nil {
			return nil, err
		}
		s.setup = clock.median()
		out.attempted += len(recs)
		checkDeadline(cfg, out, h, recs)
		out.metrics = s.metrics()
		out.extra = append(append(s.extras(), h.classLatencies(recs)...), lateness(recs)...)
		return out, nil
	}

	check := func(recs []httpRecord) { checkDeadline(cfg, out, h, recs) }
	recsA, recsB, tr, lv := h.tracedPhases(cfg, out, check)
	var lates []float64
	for _, r := range recsA {
		lates = append(lates, lateMs(r.resp))
	}
	lv["deadline.late_p50_ms"] = quantile(lates, 0.5)
	lv["deadline.late_p90_ms"] = quantile(lates, 0.9)

	// In-process replays, one at a time, under the same relative
	// deadline: which stage runs past it.
	tr.allocs = true
	untraced := meanLatencyByKey(recsA)
	var acc replayAcc
	var coverage []float64
	late := map[string]map[string]float64{} // class → stage → ms past the deadline
	perClass := map[string]float64{}
	var rawCubes, rawOps float64
	stop := time.Now().Add(cfg.seconds / 3)
	replayed := 0
	for _, rec := range replayOrder(recsB) {
		if time.Now().After(stop) && replayed >= len(deadlineKinds) {
			break
		}
		in := h.insts[rec.key.inst]
		class := deadlineKinds[rec.key.kind].class
		id := len(tr.spans)
		root := tr.begin(rec.op, -1, "replay", class)
		bud := budget.Budget{Timeout: deadlineTimeout}.Materialize()
		dl := int64(bud.Deadline.Sub(tr.epoch))
		sr, raw, err := replayDeadline(tr, rec.op, root, in, class, bud)
		tr.end(root)
		replayed++
		if err != nil {
			out.fail("%s %s: replay: %v (input %s)", in.name, class, err, saveInput(cfg, in.name, in.describe()))
			continue
		}
		acc.add(sr)
		if msg := newOracle(in.circ).checkStateCover(coverPatterns(sr.states), mustPatterns(in.patterns), false,
			rngFor(cfg.seed, "replay-oracle", rec.op), 4); msg != "" {
			out.fail("%s %s: replayed partial cover %s (input %s)", in.name, class, msg, saveInput(cfg, in.name, in.describe()))
		}
		if class == "disjoint" || class == "blocking" || class == "lifting" {
			rawCubes += float64(raw)
			rawOps++
		}
		if late[class] == nil {
			late[class] = map[string]float64{}
		}
		self := 0.0
		for _, sp := range tr.spans[id+1:] {
			self += ms(time.Duration(sp.End - sp.Start))
			past := ms(time.Duration(sp.End - max(sp.Start, dl)))
			if past <= 0 {
				continue
			}
			switch sp.Name {
			case "allsat.enumerate", "pool.enumerate":
				late[class]["enumerate"] += past
			case "cube.reduce":
				late[class]["reduce"] += past
			case "bdd.count", "bdd.isop":
				late[class]["count"] += past
			}
		}
		perClass[class]++
		if u := untraced[rec.key]; u > 0 {
			coverage = append(coverage, self/u)
		}
	}
	out.attempted += replayed
	byName, byClass := tr.aggregate()
	lv.spanMetrics(byName, replayed)
	acc.searchMs = selfMs(byName, "allsat.enumerate", "pool.enumerate")
	acc.fill(lv, replayed)
	for _, stage := range []string{"enumerate", "reduce", "count"} {
		total := 0.0
		for class, m := range late {
			total += m[stage]
			out.notes = append(out.notes, fmt.Sprintf("replay %-8s budget.late_%s_ms %.3f per op (n=%.0f)",
				class, stage, m[stage]/perClass[class], perClass[class]))
		}
		lv["budget.late_"+stage+"_ms"] = total / float64(max(replayed, 1))
	}
	if rawOps > 0 {
		lv["allsat.raw_cubes"] = rawCubes / rawOps
	}
	lv["trace.coverage"] = mean(coverage)
	lv["trace.overhead"] = httpOverhead(tr, recsA)
	finishTrace(cfg, out, tr, lv)
	out.notes = append(out.notes, classTable(byClass)...)
	return out, nil
}

// lateness reports how far past the deadline responses arrived, overall
// and per engine.
func lateness(recs []httpRecord) []metric {
	all := []float64{}
	by := map[string][]float64{}
	for _, r := range recs {
		l := lateMs(r.resp)
		all = append(all, l)
		c := deadlineKinds[r.key.kind].class
		by[c] = append(by[c], l)
	}
	out := []metric{
		{"deadline_late_p50_ms", "ms", quantile(all, 0.5), len(all)},
		{"deadline_late_p90_ms", "ms", quantile(all, 0.9), len(all)},
	}
	for _, k := range deadlineKinds {
		out = append(out, metric{"deadline_late_p90_ms." + k.class, "ms", quantile(by[k.class], 0.9), len(by[k.class])})
	}
	return out
}

// checkDeadline checks every deadline-bound response: a truncated one
// must say the deadline stopped it and carry only genuine predecessors;
// a complete one must equal the unbounded preimage.
func checkDeadline(cfg runConfig, out *outcome, h *httpLoad, recs []httpRecord) {
	refs := map[int]*preimage.Result{}
	for _, rec := range recs {
		in := h.insts[rec.key.inst]
		class := h.kinds[rec.key.kind].class
		fail := func(msg string) {
			out.fail("%s %s: %s (input %s)", in.name, class, msg, saveInput(cfg, in.name+"-"+class, in.describe()))
		}
		if f := rec.resp.failure(); f != "" {
			fail(f)
			continue
		}
		sum := rec.resp.summary
		if sum.Truncated && sum.Reason != budget.Deadline.String() {
			fail("truncated for reason " + sum.Reason + ", want " + budget.Deadline.String())
			continue
		}
		o := newOracle(in.circ)
		target := mustPatterns(in.patterns)
		if msg := o.checkStateCover(rec.resp.cubes, target, false, rngFor(cfg.seed, "deadline-oracle", rec.op), 4); msg != "" {
			fail(msg)
			continue
		}
		if sum.Truncated {
			continue
		}
		ref, ok := refs[rec.key.inst]
		if !ok {
			var err error
			ref, err = preimage.Compute(in.circ, in.target(), preimage.Options{})
			if err != nil {
				fail("reference preimage: " + err.Error())
				continue
			}
			refs[rec.key.inst] = ref
		}
		if sum.Count != ref.Count.String() ||
			!coverSet(o.nL, rec.resp.cubes).equal(coverSet(o.nL, coverPatterns(ref.States))) {
			fail(fmt.Sprintf("truncated:false but the cover (count %s) is not the full preimage (count %s)", sum.Count, ref.Count))
		}
	}
}

// replayDeadline replays one deadline-bound /v1/preimage request
// in-process, stage by stage, under budget bud. It returns the state
// cover and, for the SAT enumeration engines, the raw cube count the
// search produced before projection.
func replayDeadline(tr *tracer, op, root int, in *instance, class string, bud budget.Budget) (*stagedResult, int, error) {
	var c *circuit.Circuit
	var err error
	tr.do(op, root, "circuit.parse", func() { c, err = circuit.ParseBenchString(in.name, in.bench) })
	if err != nil {
		return nil, 0, err
	}
	target := trans.TargetFromPatterns(len(c.Latches), in.patterns...)
	if class == "success" {
		sr, err := replaySuccess(tr, op, root, c, target, bud, nil)
		return sr, 0, err
	}
	var inst *trans.Instance
	tr.do(op, root, "trans.instance", func() { inst, err = trans.NewInstance(c, target) })
	if err != nil {
		return nil, 0, err
	}
	out := &stagedResult{clauses: len(inst.F.Clauses)}
	projVars, projNames := inst.OrderedProjection(false, false)
	projSpace := cube.NewNamedSpace(projVars, projNames)
	tr.do(op, root, "simplify.run", func() { out.simp = simplifyFrozen(inst.F, projVars) })
	opts := allsat.Options{Budget: bud, Simplify: simplify.Off}
	raw := cube.NewCover(projSpace)
	tr.do(op, root, "allsat.enumerate", func() {
		var it streamIter
		if class == "disjoint" {
			it = allsat.NewDisjointIterator(inst.F, projSpace, opts)
		} else {
			it = allsat.NewIterator(inst.F, projSpace, opts, class == "lifting")
		}
		for {
			cb, ok := it.Next()
			if !ok {
				break
			}
			raw.Add(cb)
		}
		out.reason = it.Reason()
		out.aborted = out.reason != budget.None
		out.stats = it.Stats()
		it.Close()
	})
	// allsat counts the raw cover, then preimage projects it onto the
	// state positions, reduces it, and counts the states.
	tr.do(op, root, "bdd.count", func() {
		m := bdd.NewOrdered(projSpace.Vars())
		m.SatCount(m.FromCover(raw))
	})
	stateSpace := preimage.StateSpace(c)
	tr.do(op, root, "cube.reduce", func() { out.states = projectStates(raw, projSpace, stateSpace, inst) })
	tr.do(op, root, "bdd.count", func() {
		m := bdd.NewOrdered(stateSpace.Vars())
		out.count = m.SatCount(m.FromCover(out.states))
	})
	return out, raw.Len(), nil
}
