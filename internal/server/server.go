// Package server turns the one-shot enumeration CLIs into a long-lived
// multi-tenant HTTP service: the front door the ROADMAP's "millions of
// users" north star asks for.
//
// Three ideas organize the package:
//
//   - Streaming, not batching. One-shot enumeration requests run the
//     existing allsat iterators (sequential, disjoint, or the parallel
//     worker pool), and one-step preimages run on the blocking or
//     disjoint engine at one worker hand over each state cube as the
//     search finds it; each cube is one NDJSON line, flushed to the
//     client at once for the first cube and within a few milliseconds
//     for the rest. The disjoint engine's cubes are
//     pairwise disjoint by construction, so a consumer can fold the
//     stream incrementally with no post-hoc dedup; every stream ends
//     with a summary line that carries the truncation verdict, so a
//     partial answer is never silent (the Aborted contract over HTTP).
//   - Fenced budgets. Clients request budgets; the server clamps them
//     under operator ceilings (budget.Fence) and binds the request
//     context in, so a dropped connection aborts the solve at the next
//     budget poll and no tenant can ask for unbounded work.
//   - Bounded residency. Named incremental sessions (internal/incr)
//     persist solver and BDD state across reachability steps; an LRU
//     with a fixed capacity evicts the idlest session (closing its
//     solver pool) whenever a new one would exceed it, and a
//     semaphore-based admission controller caps concurrent solves,
//     returning 429 with Retry-After when saturated.
//
// The package is transport only: every solver capability it exposes —
// engines, budgets, simplification, parallelism, stats — is the
// library's, reached through the same entry points the CLIs use.
package server

import (
	"context"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cube"
	"allsatpre/internal/preimage"
	rt "allsatpre/internal/runtime"
	"allsatpre/internal/stats"
)

// Config tunes a Server. The zero value serves with defaults suitable
// for tests; cmd/serve exposes every field as a flag.
type Config struct {
	// MaxConcurrent bounds simultaneously running solves (streams and
	// session steps) across all tenants. <= 0 selects GOMAXPROCS.
	MaxConcurrent int
	// MaxSessions is the incremental-session LRU capacity. <= 0
	// selects DefaultMaxSessions.
	MaxSessions int
	// MaxBodyBytes caps request payloads (DIMACS/BENCH text). <= 0
	// selects DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Fence holds the server-enforced budget ceilings; client-requested
	// budgets are clamped under it (zero = no ceilings).
	Fence budget.Fence
	// MaxWorkers caps the per-request worker count. <= 0 selects
	// GOMAXPROCS.
	MaxWorkers int
	// RetryAfter is the hint returned with 429 responses before any solve
	// has completed (afterwards the hint extrapolates the observed queue
	// drain time). <= 0 selects one second.
	RetryAfter time.Duration
	// AdmissionWait lets a request at a saturated gate wait in a bounded
	// FIFO queue for up to this long before getting 429. 0 keeps the
	// classic immediate-reject behavior.
	AdmissionWait time.Duration
	// AdmissionQueue caps how many requests may wait at once when
	// AdmissionWait > 0. <= 0 selects 2×MaxConcurrent.
	AdmissionQueue int
	// PoolBytes is the byte ceiling of the warm solver/manager free-list
	// (internal/runtime): released instances above it are dropped,
	// largest first. 0 selects runtime.DefaultMaxBytes; < 0 disables the
	// free-list (every request builds its solvers and managers from
	// scratch; its jobs still run on the shared scheduler).
	PoolBytes int64
	// SchedWorkers sizes the server-wide executor pool that runs all
	// requests' subcube jobs with per-tenant fair share. <= 0 selects
	// MaxConcurrent.
	SchedWorkers int
	// TenantHeader names the request header carrying the tenant id used
	// for fair-share scheduling and per-tenant fences. Empty selects
	// "X-Tenant".
	TenantHeader string
	// TenantFences overrides Fence for specific tenant ids; tenants not
	// listed fall back to the global Fence.
	TenantFences map[string]budget.Fence
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by
	// default: profiling endpoints leak heap contents and timing).
	EnablePprof bool
	// Stats, when non-nil, receives the server.* counters, gauges, and
	// per-engine latency histograms alongside whatever engine counters
	// the registry already collects.
	Stats *stats.Registry
}

// Defaults for Config's zero fields.
const (
	DefaultMaxSessions  = 8
	DefaultMaxBodyBytes = 8 << 20 // 8 MiB of DIMACS/BENCH text
)

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.SchedWorkers <= 0 {
		c.SchedWorkers = c.MaxConcurrent
	}
	if c.TenantHeader == "" {
		c.TenantHeader = "X-Tenant"
	}
	return c
}

// Server is the enumeration service. Build one with New, mount
// Handler on an http.Server, and call BeginShutdown before the HTTP
// server's Shutdown so in-flight streams finish with a
// TRUNCATED(shutdown) summary instead of being cut mid-line.
type Server struct {
	cfg      Config
	adm      *admission
	store    *sessionStore
	rt       *rt.Runtime     // never nil; Pool is nil when pooling is disabled
	reg      *stats.Registry // never nil; a discard registry when unset
	shutdown chan struct{}
	// compute is preimage.Compute. No request that parses makes Compute
	// fail, so tests replace it to reach handlePreimage's 422 path.
	compute func(*circuit.Circuit, *cube.Cover, preimage.Options) (*preimage.Result, error)
}

// New builds a Server from the config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Stats
	if reg == nil {
		reg = stats.NewRegistry("serve") // unobserved sink keeps handlers branch-free
	}
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		shutdown: make(chan struct{}),
		compute:  preimage.Compute,
	}
	s.adm = newAdmission(cfg.MaxConcurrent, cfg.AdmissionWait, cfg.AdmissionQueue, reg)
	s.store = newSessionStore(cfg.MaxSessions, reg)

	// The runtime: the server-wide fair-share executor pool every
	// request's parallel jobs run on, plus a warm solver/manager
	// free-list unless pooling is disabled (then every request builds
	// its solvers and managers from scratch).
	s.rt = &rt.Runtime{Sched: rt.NewScheduler(cfg.SchedWorkers, reg)}
	if cfg.PoolBytes >= 0 {
		s.rt.Pool = rt.NewPool(rt.PoolOptions{MaxBytes: cfg.PoolBytes, Stats: reg})
	}
	return s
}

// runtimeFor labels the shared runtime with the request's tenant id so
// the scheduler can fair-share across tenants.
func (s *Server) runtimeFor(r *http.Request) *rt.Runtime {
	return s.rt.WithTenant(r.Header.Get(s.cfg.TenantHeader))
}

// fenceFor picks the budget fence for the request's tenant: an entry in
// TenantFences keyed by the tenant header, else the global fence.
func (s *Server) fenceFor(r *http.Request) budget.Fence {
	if f, ok := s.cfg.TenantFences[r.Header.Get(s.cfg.TenantHeader)]; ok {
		return f
	}
	return s.cfg.Fence
}

// Handler returns the service's routing table. Mount it as the root
// handler; the stats registry is served at /debug/stats so the
// existing snapshot tooling observes the daemon.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/enumerate", s.handleEnumerate)
	mux.HandleFunc("POST /v1/preimage", s.handlePreimage)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
	mux.HandleFunc("POST /v1/sessions/{id}/step", s.handleSessionStep)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.Handle("GET /debug/stats", s.reg.Handler())
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// BeginShutdown starts the drain: every in-flight stream's solve is
// cancelled, and the streams write their summary line with
// reason=shutdown before returning, so the subsequent http
// Server.Shutdown finds handlers that finish promptly and clients that
// know their cover is partial. Idempotent.
func (s *Server) BeginShutdown() {
	select {
	case <-s.shutdown:
	default:
		close(s.shutdown)
	}
}

// Close releases every live session and stops the shared scheduler
// executors (draining queued jobs first). Call after the HTTP server
// has stopped accepting requests.
func (s *Server) Close() {
	s.store.closeAll()
	s.rt.Sched.Close()
}

// solveContext derives the context a solve runs under: cancelled when
// the client goes away (request context) or when the server drains
// (BeginShutdown). The cancellation reaches the engines through
// budget.Fence.Clamp, so one budget poll later the solve stops.
func (s *Server) solveContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	go func() {
		select {
		case <-s.shutdown:
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}

// drained reports whether BeginShutdown has been called — used to tell
// a shutdown-cancelled stream from a client-cancelled one.
func (s *Server) drained() bool {
	select {
	case <-s.shutdown:
		return true
	default:
		return false
	}
}
