package stats

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotone counter safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Registry is a hierarchical collection of named counters, gauges, and
// duration accumulators, organized into phases (sub-registries). Engines
// record into it during a run; callers snapshot it for reporting or
// serve it over HTTP. All methods are safe for concurrent use.
type Registry struct {
	name string

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]int64
	floats     map[string]float64
	durations  map[string]time.Duration
	histograms map[string]*Histogram
	phases     map[string]*Registry
	order      []string // insertion order of phases
}

// NewRegistry creates a root registry with the given name.
func NewRegistry(name string) *Registry {
	return &Registry{
		name:       name,
		counters:   map[string]*Counter{},
		gauges:     map[string]int64{},
		floats:     map[string]float64{},
		durations:  map[string]time.Duration{},
		histograms: map[string]*Histogram{},
		phases:     map[string]*Registry{},
	}
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// SetGauge records a point-in-time value (last write wins).
func (r *Registry) SetGauge(name string, v int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = v
}

// SetFloatGauge records a point-in-time fractional value (last write
// wins) — ratios like load factors or mean probe lengths, rendered with
// three decimals in snapshots.
func (r *Registry) SetFloatGauge(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.floats[name] = v
}

// MaxGauge records a point-in-time value, keeping the maximum observed.
func (r *Registry) MaxGauge(name string, v int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.gauges[name]; !ok || v > cur {
		r.gauges[name] = v
	}
}

// AddDuration accumulates wall-clock time under the given name.
func (r *Registry) AddDuration(name string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.durations[name] += d
}

// Phase returns (creating on first use) the named sub-registry. Phases
// group counters by computation stage — e.g. one phase per reachability
// step — and render as an indented subtree in snapshots.
func (r *Registry) Phase(name string) *Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.phases[name]
	if !ok {
		p = NewRegistry(name)
		r.phases[name] = p
		r.order = append(r.order, name)
	}
	return p
}

// KV is one snapshotted metric.
type KV struct {
	Key   string
	Value string
}

// Snapshot is a point-in-time copy of a registry subtree, ready to
// render. Metrics are sorted by key; phases keep insertion order.
type Snapshot struct {
	Name    string
	Metrics []KV
	Phases  []Snapshot
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	s := Snapshot{Name: r.name}
	for k, c := range r.counters {
		s.Metrics = append(s.Metrics, KV{k, fmt.Sprintf("%d", c.Load())})
	}
	for k, v := range r.gauges {
		s.Metrics = append(s.Metrics, KV{k, fmt.Sprintf("%d", v)})
	}
	for k, v := range r.floats {
		s.Metrics = append(s.Metrics, KV{k, fmt.Sprintf("%.3f", v)})
	}
	for k, d := range r.durations {
		s.Metrics = append(s.Metrics, KV{k, fmtDuration(d)})
	}
	phases := make([]*Registry, 0, len(r.order))
	for _, name := range r.order {
		phases = append(phases, r.phases[name])
	}
	r.mu.Unlock()

	sort.Slice(s.Metrics, func(i, j int) bool { return s.Metrics[i].Key < s.Metrics[j].Key })
	for _, p := range phases {
		s.Phases = append(s.Phases, p.Snapshot())
	}
	return s
}

// WriteText renders the snapshot as an indented tree.
func (s Snapshot) WriteText(w io.Writer) { s.writeText(w, "") }

func (s Snapshot) writeText(w io.Writer, indent string) {
	fmt.Fprintf(w, "%s[%s]\n", indent, s.Name)
	for _, kv := range s.Metrics {
		fmt.Fprintf(w, "%s  %-24s %s\n", indent, kv.Key, kv.Value)
	}
	for _, p := range s.Phases {
		p.writeText(w, indent+"  ")
	}
}

// WriteJSON renders the snapshot as a JSON object in the expvar style:
// metric keys map to values, phases map to nested objects. Keys are
// emitted with %q so the output is always valid JSON.
func (s Snapshot) WriteJSON(w io.Writer) {
	fmt.Fprint(w, "{")
	first := true
	sep := func() {
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
	}
	for _, kv := range s.Metrics {
		sep()
		fmt.Fprintf(w, "%q:%q", kv.Key, kv.Value)
	}
	for _, p := range s.Phases {
		sep()
		fmt.Fprintf(w, "%q:", p.Name)
		p.WriteJSON(w)
	}
	fmt.Fprint(w, "}")
}

// String renders the text form.
func (s Snapshot) String() string {
	var b strings.Builder
	s.WriteText(&b)
	return b.String()
}

// Handler serves the registry as JSON — an expvar-style snapshot
// endpoint the CLIs can expose with -stats-http while a long run is in
// flight.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		r.Snapshot().WriteJSON(w)
		io.WriteString(w, "\n")
	})
}

// SnapshotServer is a running registry-snapshot HTTP endpoint with a
// graceful shutdown path. Close drains in-flight snapshot requests
// instead of dropping them; the underlying server carries a
// ReadHeaderTimeout so a slow-headers client cannot pin a connection
// open indefinitely (slowloris).
type SnapshotServer struct {
	srv  *http.Server
	errc chan error
}

// Serve starts an HTTP server for the registry snapshot on addr in a
// background goroutine, returning immediately. Startup errors (e.g. a
// busy port) are reported on Err; call Close to shut the endpoint down
// gracefully.
func (r *Registry) Serve(addr string) *SnapshotServer {
	mux := http.NewServeMux()
	mux.Handle("/", r.Handler())
	mux.Handle("/debug/stats", r.Handler())
	s := &SnapshotServer{
		srv: &http.Server{
			Addr:              addr,
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
		},
		errc: make(chan error, 1),
	}
	go func() {
		if err := s.srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			s.errc <- err
		}
	}()
	return s
}

// Err reports a startup or serve failure (never http.ErrServerClosed).
func (s *SnapshotServer) Err() <-chan error { return s.errc }

// Close shuts the endpoint down, draining in-flight requests for up to
// two seconds before closing the remaining connections.
func (s *SnapshotServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}
