// Command perfbench is the repository benchmark: it generates every input
// from a seed, drives one of four workloads through the public entry
// points (the preimage/reach library calls a CLI makes, or HTTP requests
// against an in-process server built with cmd/serve's defaults), checks
// every output against the circuit simulator, and prints the end-to-end
// metrics by name with their units. With -trace 1 it instead replays the
// same operations stage by stage through each layer's public functions,
// records spans around those calls, and prints the per-layer metrics.
//
//	perfbench --workload preimage-oneshot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// See README.md in this directory for the workloads, the metrics, and
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// runConfig carries the command-line settings to a workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// metric is one reported number. n is the sample count behind it (0 when
// it is a ratio or count rather than a timing).
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// outcome is what a workload run returns to main.
type outcome struct {
	attempted int
	failed    int
	// failures describes each failed op with the file holding its input.
	failures []string
	metrics  []metric
	// extra metrics are printed in the report but not in the JSON line.
	extra []metric
	notes []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 50 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	name string
	run  func(cfg runConfig) (*outcome, error)
}

var workloads = []workload{
	{"preimage-oneshot", runOneshot},
	{"reach-fixpoint", runReach},
	{"serve-stream", runServeStream},
	{"serve-deadline", runServeDeadline},
}

func main() {
	name := flag.String("workload", "", "workload to run: preimage-oneshot, reach-fixpoint, serve-stream, serve-deadline")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 replays the ops stage by stage and reports per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := runConfig{
		workload: w.name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d nproc=%d go=%s\n",
		cfg.workload, cfg.seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	report(out)
}

// report prints the human-readable table and then the JSON result line.
func report(out *outcome) {
	for _, n := range out.notes {
		fmt.Println("note:", n)
	}
	all := append(append([]metric(nil), out.metrics...), out.extra...)
	for _, m := range all {
		if m.n > 0 {
			fmt.Printf("%-32s %14.4f %-8s (n=%d)\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Printf("%-32s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
	errRate := 0.0
	if out.attempted > 0 {
		errRate = float64(out.failed) / float64(out.attempted)
	}
	fmt.Printf("%-32s %14.4f %-8s (%d failed of %d attempted)\n", "error_rate", errRate, "ratio", out.failed, out.attempted)
	for _, f := range out.failures {
		fmt.Println("FAILED:", f)
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]val, len(out.metrics))
	for _, m := range out.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		vals[m.name] = val{v, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, vals})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// ---- closed-loop driver ----

// closedLoop runs operations 0, 1, 2, ... on `clients` goroutines, each
// starting its next operation only after the previous one returned. Once
// dur has elapsed it stops at the next multiple of passLen, so every run
// executes whole passes over the input population. It returns the number
// of operations run and the time from start to the last completion.
func closedLoop(clients, passLen int, dur time.Duration, do func(client, i int)) (int, time.Duration) {
	var (
		mu    sync.Mutex
		next  int
		limit = math.MaxInt
		last  time.Time
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if limit == math.MaxInt && time.Since(start) >= dur {
					limit = (i + passLen - 1) / passLen * passLen
				}
				if i >= limit {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				do(c, i)
				mu.Lock()
				if t := time.Now(); t.After(last) {
					last = t
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if last.IsZero() {
		last = time.Now()
	}
	return min(next, limit), last.Sub(start)
}

// ---- sample statistics ----

// quantile returns the q-quantile of xs by linear interpolation (the
// same rule as numpy's default); xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ---- process measurements ----

// heapAllocated returns the cumulative bytes allocated on the heap. It
// reads runtime/metrics rather than MemStats, so it does not stop the
// world and can bracket individual spans.
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSS returns the peak resident set size of this process so far, in
// MB (0 where getrusage fails).
func peakRSS() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KB on Linux
}

// window brackets the timed region of a run: it settles the heap first,
// then records the allocation counter.
type window struct {
	allocStart uint64
}

func openWindow() *window {
	runtime.GC()
	debug.FreeOSMemory()
	return &window{allocStart: heapAllocated()}
}

// close returns the bytes allocated since open and the process's peak
// RSS (MB), set-up included.
func (w *window) close() (alloc uint64, rssPeak float64) {
	return heapAllocated() - w.allocStart, peakRSS()
}

// setupClock times a workload's set-up. A run sets up several times on
// each side of its measured window and reports the median, so setup_s
// samples the host's speed over the whole run, as the other metrics do,
// rather than only in its first second. Each set-up but the last is torn
// down; the last one's state is what the run uses.
type setupClock struct {
	setup    func() error
	teardown func()
	ds       []float64
}

// rep times n more set-ups, each on a collected heap so none pays for the
// garbage of the one before.
func (c *setupClock) rep(n int) error {
	for i := 0; i < n; i++ {
		if len(c.ds) > 0 {
			c.teardown()
		}
		runtime.GC()
		t0 := time.Now()
		if err := c.setup(); err != nil {
			return err
		}
		c.ds = append(c.ds, float64(time.Since(t0)))
	}
	return nil
}

func (c *setupClock) median() time.Duration { return time.Duration(median(c.ds)) }

// outDir is where traces and failing inputs are written, inside the
// working directory (the checkout root).
const outDir = ".bench_out"

// saveInput writes a failing op's input so it can be replayed, and
// returns its path.
func saveInput(cfg runConfig, label, content string) string {
	dir := filepath.Join(outDir, "failures")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "(unsaved: " + err.Error() + ")"
	}
	p := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s", cfg.workload, cfg.seed, label))
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		return "(unsaved: " + err.Error() + ")"
	}
	return p
}

// opSample is one completed op of the measured window.
type opSample struct {
	pass       int
	start, end time.Time
	ttfc       float64 // ms to the first cube; < 0 when the op delivered none
	cubes      int
}

// e2eSample is a measured window.
type e2eSample struct {
	ops     []opSample
	elapsed time.Duration
	alloc   uint64
	peakRSS float64
	setup   time.Duration
}

func (s *e2eSample) latencies() []float64 {
	out := make([]float64, len(s.ops))
	for i, o := range s.ops {
		out[i] = ms(o.end.Sub(o.start))
	}
	return out
}

// metrics computes the gated end-to-end metrics. Throughput and latency
// percentiles are taken per pass over the population and the median
// over passes is reported, so a burst of outside load during one pass
// moves the run's figure less than it moves that pass.
func (s *e2eSample) metrics() []metric {
	byPass := map[int][]opSample{}
	for _, o := range s.ops {
		byPass[o.pass] = append(byPass[o.pass], o)
	}
	var tput, p50, p90, ttfc []float64
	nTTFC := 0
	for _, ops := range byPass {
		first, last := ops[0].start, ops[0].end
		var lats, tt []float64
		for _, o := range ops {
			if o.start.Before(first) {
				first = o.start
			}
			if o.end.After(last) {
				last = o.end
			}
			lats = append(lats, ms(o.end.Sub(o.start)))
			if o.ttfc >= 0 {
				tt = append(tt, o.ttfc)
			}
		}
		tput = append(tput, float64(len(ops))/last.Sub(first).Seconds())
		p50 = append(p50, quantile(lats, 0.5))
		p90 = append(p90, quantile(lats, 0.9))
		if len(tt) > 0 {
			ttfc = append(ttfc, quantile(tt, 0.5))
			nTTFC += len(tt)
		}
	}
	n := len(s.ops)
	return []metric{
		{"setup_s", "s", s.setup.Seconds(), 0},
		{"ops_per_s", "1/s", median(tput), n},
		{"latency_p50_ms", "ms", median(p50), n},
		{"latency_p90_ms", "ms", median(p90), n},
		{"ttfc_p50_ms", "ms", median(ttfc), nTTFC},
	}
}

// extras are reported but not gated, because on some workload they swing
// between runs by more than any useful bound: cube counts depend on which
// targets a seed draws; on serve-deadline the peak resident memory is set
// by whether a seed's targets include one whose disjoint overshoot
// balloons, and the deadline-bound engines allocate in proportion to the
// work the host fits into the timeout, so allocation follows host speed.
func (s *e2eSample) extras() []metric {
	cubes := 0
	for _, o := range s.ops {
		cubes += o.cubes
	}
	n := len(s.ops)
	return []metric{
		{"alloc_mb_per_op", "MB", float64(s.alloc) / 1e6 / float64(max(n, 1)), n},
		{"cubes_per_s", "1/s", float64(cubes) / s.elapsed.Seconds(), cubes},
		{"peak_rss_mb", "MB", s.peakRSS, 0},
	}
}
