package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The traced mode. Spans are recorded around the benchmark's own calls
// into each layer's public functions (nothing inside the program is
// instrumented), kept in memory, and written out as JSON lines when the
// run ends. A span's self time is its duration minus the part of it its
// child spans cover.

type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op's root span
	Class  string `json:"class,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Alloc is the heap bytes allocated while the span was open; only
	// recorded when one goroutine runs ops (allocations are process-wide).
	Alloc uint64 `json:"alloc_bytes,omitempty"`
}

type tracer struct {
	epoch  time.Time
	allocs bool
	mu     sync.Mutex
	spans  []span
}

func newTracer(allocs bool) *tracer { return &tracer{epoch: time.Now(), allocs: allocs} }

func (t *tracer) begin(op, parent int, name, class string) int {
	var a uint64
	if t.allocs {
		a = heapAllocated()
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, Class: class, Start: now, Alloc: a})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.epoch))
	var a uint64
	if t.allocs {
		a = heapAllocated()
	}
	t.mu.Lock()
	s := &t.spans[id]
	s.End = now
	if t.allocs {
		s.Alloc = a - s.Alloc
	}
	t.mu.Unlock()
}

// do runs fn inside a child span of parent.
func (t *tracer) do(op, parent int, name string, fn func()) {
	id := t.begin(op, parent, name, "")
	fn()
	t.end(id)
}

func (t *tracer) duration(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id]
	return time.Duration(s.End - s.Start)
}

// spanStats aggregates one span name.
type spanStats struct {
	count     int
	incl      time.Duration
	self      time.Duration
	selfAlloc float64 // bytes
}

// aggregate computes self times and groups spans by name, and by name
// within each op class (a root span's class applies to its subtree).
func (t *tracer) aggregate() (byName map[string]*spanStats, byClass map[string]map[string]*spanStats) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	class := make([]string, len(spans))
	for _, s := range spans { // parents precede children in ID order
		if s.Parent >= 0 {
			class[s.ID] = class[s.Parent]
		} else {
			class[s.ID] = s.Class
		}
	}
	byName = map[string]*spanStats{}
	byClass = map[string]map[string]*spanStats{}
	add := func(m map[string]*spanStats, name string, incl, self time.Duration, alloc float64) {
		st := m[name]
		if st == nil {
			st = &spanStats{}
			m[name] = st
		}
		st.count++
		st.incl += incl
		st.self += self
		st.selfAlloc += alloc
	}
	for _, s := range spans {
		incl := time.Duration(s.End - s.Start)
		// Union of the children's intervals, clipped to the parent.
		type iv struct{ a, b int64 }
		var ivs []iv
		childAlloc := 0.0
		for _, c := range children[s.ID] {
			cs := spans[c]
			ivs = append(ivs, iv{max(cs.Start, s.Start), min(cs.End, s.End)})
			childAlloc += float64(cs.Alloc)
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, hi int64
		hi = s.Start
		for _, v := range ivs {
			if v.b <= hi {
				continue
			}
			covered += v.b - max(v.a, hi)
			hi = v.b
		}
		self := incl - time.Duration(covered)
		alloc := float64(s.Alloc) - childAlloc
		add(byName, s.Name, incl, self, alloc)
		if byClass[class[s.ID]] == nil {
			byClass[class[s.ID]] = map[string]*spanStats{}
		}
		add(byClass[class[s.ID]], s.Name, incl, self, alloc)
	}
	return byName, byClass
}

// write saves the spans as JSON lines under outDir and returns the path.
func (t *tracer) write(cfg runConfig) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	p := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(p)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return p, f.Close()
}

// finishTrace writes the spans and renders the per-layer set.
func finishTrace(cfg runConfig, out *outcome, tr *tracer, lv layerValues) {
	if p, err := tr.write(cfg); err != nil {
		out.notes = append(out.notes, "trace not written: "+err.Error())
	} else {
		out.notes = append(out.notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), p))
	}
	out.metrics = lv.metrics()
}

// layerMetrics is the fixed per-layer metric set every traced run
// reports, in order; a layer a workload does not exercise reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"circuit.parse_ms", "ms"},
	{"circuit.parse.alloc_kb", "KB"},
	{"trans.instance_ms", "ms"},
	{"trans.instance.alloc_kb", "KB"},
	{"trans.cnf_clauses", "count"},
	{"simplify.run_ms", "ms"},
	{"simplify.run.alloc_kb", "KB"},
	{"simplify.clause_ratio", "ratio"},
	{"simplify.vars_eliminated", "count"},
	{"pool.enumerate_ms", "ms"},
	{"pool.enumerate.alloc_kb", "KB"},
	{"core.decisions", "count"},
	{"core.conflicts", "count"},
	{"core.memo_hit_rate", "ratio"},
	{"sat.propagations_per_ms", "1/ms"},
	{"sat.peak_learnts", "count"},
	{"bdd.isop_ms", "ms"},
	{"bdd.isop.alloc_kb", "KB"},
	{"bdd.count_ms", "ms"},
	{"bdd.count.alloc_kb", "KB"},
	{"bdd.peak_nodes", "count"},
	{"bdd.cache_hit_rate", "ratio"},
	{"bdd.avg_probes", "count"},
	{"incr.step_ms", "ms"},
	{"reach.fresh_step_ms", "ms"},
	{"reach.frontier_ms", "ms"},
	{"reach.steps", "count"},
	{"incr.learned_kept", "count"},
	{"incr.clauses_retired", "count"},
	{"incr.memo_invalidated", "count"},
	{"allsat.next_us", "us"},
	{"allsat.raw_cubes", "count"},
	{"cube.reduce_ms", "ms"},
	{"cube.reduce.alloc_kb", "KB"},
	{"budget.late_enumerate_ms", "ms"},
	{"budget.late_reduce_ms", "ms"},
	{"budget.late_count_ms", "ms"},
	{"deadline.late_p50_ms", "ms"},
	{"deadline.late_p90_ms", "ms"},
	{"runtime.solver_hit_rate", "ratio"},
	{"runtime.manager_hit_rate", "ratio"},
	{"runtime.bytes_retained", "bytes"},
	{"runtime.sched_jobs", "count"},
	{"runtime.sched_queue_peak", "count"},
	{"pool.steals", "count"},
	{"pool.imbalance", "ratio"},
	{"server.ttfb_ms", "ms"},
	{"server.stream_ms", "ms"},
	{"server.bytes_per_cube", "B/cube"},
	{"server.overhead_per_cube_us", "us"},
	{"server.queue_entered", "count"},
	{"server.rejected", "count"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

// layerValues collects a traced run's per-layer numbers by name.
type layerValues map[string]float64

// spanMetrics fills the metrics that come straight from span aggregates:
// self time and self allocation per op for the stage spans (which always
// run one at a time, so their allocations are their own).
func (lv layerValues) spanMetrics(byName map[string]*spanStats, ops int) {
	perOp := func(d time.Duration) float64 { return ms(d) / float64(max(ops, 1)) }
	for _, name := range []string{"circuit.parse", "trans.instance", "simplify.run", "pool.enumerate", "bdd.isop", "bdd.count", "cube.reduce"} {
		st := byName[name]
		if st == nil {
			continue
		}
		lv[name+"_ms"] = perOp(st.self)
		lv[name+".alloc_kb"] = st.selfAlloc / 1024 / float64(max(ops, 1))
	}
}

// metrics renders the fixed per-layer set.
func (lv layerValues) metrics() []metric {
	out := make([]metric, 0, len(layerMetrics))
	for _, m := range layerMetrics {
		out = append(out, metric{m.name, m.unit, lv[m.name], 0})
	}
	return out
}

// classTable prints self time per span name for each op class, so a
// class whose ops never enter a layer shows it by the missing row.
func classTable(byClass map[string]map[string]*spanStats) []string {
	var classes []string
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var lines []string
	for _, c := range classes {
		roots := 0
		var names []string
		for n, st := range byClass[c] {
			names = append(names, n)
			if n == "op" {
				roots = st.count
			}
		}
		sort.Strings(names)
		for _, n := range names {
			st := byClass[c][n]
			lines = append(lines, fmt.Sprintf("class %-16s span %-18s n=%-6d self %.3f ms/op", c, n, st.count, ms(st.self)/float64(max(roots, 1))))
		}
	}
	return lines
}
