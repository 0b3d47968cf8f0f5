package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"allsatpre/internal/allsat"
	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cnf"
	"allsatpre/internal/core"
	"allsatpre/internal/cube"
	"allsatpre/internal/genspec"
	"allsatpre/internal/incr"
	"allsatpre/internal/lit"
	"allsatpre/internal/pool"
	"allsatpre/internal/preimage"
	"allsatpre/internal/simplify"
	"allsatpre/internal/trans"
)

// httpError writes a JSON error body. Every 4xx/5xx the service emits
// goes through here, so clients always get a machine-readable reason.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// readBody drains the request body under the configured size limit,
// translating an over-limit read into 413 (and reporting whether the
// response has already been written).
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit", mbe.Limit)
		} else {
			httpError(w, http.StatusBadRequest, "reading body: %v", err)
		}
		return nil, false
	}
	return data, true
}

// parseBudget reads the client's requested resource limits from query
// parameters (timeout, max-conflicts, max-decisions, max-cubes,
// max-bdd-nodes — the CLI flag names without the dash). The values are
// requests, not grants: the fence clamps them afterwards.
func parseBudget(q url.Values) (budget.Budget, error) {
	var b budget.Budget
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return b, fmt.Errorf("bad timeout %q (want a duration like 30s)", v)
		}
		b.Timeout = d
	}
	for _, p := range []struct {
		key string
		dst *uint64
	}{
		{"max-conflicts", &b.MaxConflicts},
		{"max-decisions", &b.MaxDecisions},
		{"max-cubes", &b.MaxCubes},
	} {
		if v := q.Get(p.key); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return b, fmt.Errorf("bad %s %q (want a non-negative integer)", p.key, v)
			}
			*p.dst = n
		}
	}
	if v := q.Get("max-bdd-nodes"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return b, fmt.Errorf("bad max-bdd-nodes %q (want a non-negative integer)", v)
		}
		b.MaxBDDNodes = n
	}
	return b, nil
}

// workersFor resolves the requested worker count under the server cap.
func (s *Server) workersFor(q url.Values) (int, error) {
	v := q.Get("workers")
	if v == "" {
		return 1, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("bad workers %q (want a positive integer)", v)
	}
	if n > s.cfg.MaxWorkers {
		n = s.cfg.MaxWorkers
	}
	return n, nil
}

// handleEnumerate streams the solutions of a DIMACS payload projected
// onto a variable set, as NDJSON cube events.
//
//	POST /v1/enumerate?engine=disjoint&workers=4&timeout=30s
//	(body: DIMACS text, optionally carrying a "c proj ..." line)
//
// Engines: disjoint (default; pairwise-disjoint cubes, safe to fold
// incrementally), blocking, lifting (both stream but cubes may
// overlap), success (the paper's enumerator; builds its cover first,
// then streams it — cubes do not arrive incrementally).
func (s *Server) handleEnumerate(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("server.requests").Inc()
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	engine := q.Get("engine")
	if engine == "" {
		engine = "disjoint"
	}
	eng, err := genspec.Engine(engine)
	if err == nil && eng == preimage.EngineBDD {
		err = fmt.Errorf("engine %q cannot enumerate raw CNF (want disjoint, blocking, lifting, or success)", engine)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	f, fileProj, err := cnf.ParseDimacs(bytes.NewReader(data))
	if err != nil {
		httpError(w, http.StatusBadRequest, "malformed DIMACS: %v", err)
		return
	}
	var explicit []int
	if v := q.Get("proj"); v != "" {
		for _, tok := range strings.Split(v, ",") {
			d, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				httpError(w, http.StatusBadRequest, "bad projection variable %q (want a DIMACS number)", tok)
				return
			}
			explicit = append(explicit, d)
		}
	}
	proj, err := cnf.Projection(explicit, fileProj, f.NumVars)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	workers, err := s.workersFor(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	reqBudget, err := parseBudget(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	smode, err := genspec.SimplifyMode(q.Get("simplify"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	tok, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer s.adm.release(tok)

	ctx, cancel := s.solveContext(r)
	defer cancel()
	bud := s.fenceFor(r).Clamp(ctx, reqBudget).Materialize()
	run := s.runtimeFor(r)
	space := cube.NewSpace(proj)

	start := time.Now()
	sw := newStreamWriter(w)
	defer sw.close()
	sw.emit(headerEvent{
		Type: "header", Engine: engine, Vars: f.NumVars,
		Projection: dimacsVars(proj), Workers: workers,
	})

	opts := allsat.Options{Budget: bud, Workers: workers, Simplify: smode, Runtime: run}
	var summary summaryEvent
	if eng == preimage.EngineSuccessDriven {
		// The success-driven enumerator stores solutions as an ROBDD, so
		// there is no cube iterator to drain: run to completion, then
		// stream the resulting cover. The pool entry point handles every
		// worker count (one short-circuits to the sequential enumerator)
		// and returns its manager to the warm pool after the extraction.
		// The pool does no preprocessing of its own, so the simplify mode
		// is honored here, with the projection frozen, as the iterators
		// do: the cover is an ISOP of the canonical BDD of the projected
		// set, which the pass preserves, so the stream is unchanged.
		if smode.Enabled() {
			f = f.Clone()
			simplify.RunFrozen(f, proj)
		}
		res := pool.EnumerateToResult(f, space, pool.Options{
			Workers: workers, Core: core.DefaultOptions(), Budget: bud,
			Stats: s.reg, Runtime: run,
		})
		for _, c := range res.Cover.Cubes() {
			sw.cube(c)
			if sw.failed() {
				break
			}
		}
		summary = s.summarize(res.Stats, sw.sent, res.Reason, time.Since(start).Milliseconds())
		summary.Count = res.Count.String()
	} else {
		ae, _ := eng.CubeEngine()
		it := allsat.NewEngineIterator(f, space, opts, ae)
		reason := s.streamCubes(ctx, sw, it, bud.MaxCubes, cancel)
		it.Close() // release workers; pooled solvers go back warm
		summary = s.summarize(it.Stats(), sw.sent, reason, time.Since(start).Milliseconds())
	}
	sw.emit(summary)
	s.reg.Counter("server.streamed-cubes").Add(sw.sent)
	s.reg.Histogram("server.latency." + eng.String()).Observe(time.Since(start))
	if summary.Reason == "shutdown" {
		s.reg.Counter("server.shutdown-truncated").Inc()
	}
}

// streamCubes drains an iterator into the stream, enforcing the
// (already fenced) cube cap handler-side — a cube past the cap cancels
// the request context, so parallel jobs stop at once, and a run whose
// cap equals its exact cube count ends complete — and aborting the
// solve the moment the client stops reading.
func (s *Server) streamCubes(ctx context.Context, sw *streamWriter,
	it allsat.CubeIterator, maxCubes uint64, cancel func()) budget.Reason {
	for {
		c, ok := it.Next()
		if !ok {
			return it.Reason()
		}
		if maxCubes > 0 && sw.sent >= maxCubes {
			cancel() // parallel workers keep enumerating otherwise
			return budget.Cubes
		}
		if !sendCube(sw, c, cancel) || ctx.Err() != nil {
			cancel()
			return budget.Cancelled
		}
	}
}

// sendCube writes one cube to the stream and reports whether the client
// still reads it. A failed write (the client went away) cancels the
// request context, which aborts the solve still producing cubes.
func sendCube(sw *streamWriter, c cube.Cube, cancel func()) bool {
	sw.cube(c)
	if sw.failed() {
		cancel()
		return false
	}
	return true
}

// handlePreimage computes the one-step preimage of a target state set
// of a BENCH circuit with any of the five engines, streaming the cover.
//
//	POST /v1/preimage?target=1X0&engine=bdd   (body: ISCAS-89 BENCH text)
//
// The blocking and disjoint engines at one worker stream each state cube
// the moment the search finds it: their cover is pairwise disjoint and
// final as it grows (preimage.Options.StateSink). The lifting, success
// and BDD engines, and runs on more workers, stream their cover once
// Compute returns, since it is reduced or reordered first. The bytes
// are the same either way, apart from elapsed_ms. The header goes out
// with the first cube or once Compute returns, so a Compute error still
// answers 422 with no stream.
func (s *Server) handlePreimage(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("server.requests").Inc()
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	name := q.Get("engine")
	if name == "" {
		name = "success"
	}
	eng, err := genspec.Engine(name)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c, err := circuit.ParseBenchString("payload", string(data))
	if err != nil {
		httpError(w, http.StatusBadRequest, "malformed BENCH circuit: %v", err)
		return
	}
	target, err := targetCover(c, q["target"])
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	workers, err := s.workersFor(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	reqBudget, err := parseBudget(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	tok, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer s.adm.release(tok)
	ctx, cancel := s.solveContext(r)
	defer cancel()
	bud := s.fenceFor(r).Clamp(ctx, reqBudget)

	start := time.Now()
	// The stream opens lazily, at the first cube a streaming run sinks
	// or once Compute returns, so a Compute error still answers 422.
	var sw *streamWriter
	open := func() {
		sw = newStreamWriter(w)
		sw.emit(headerEvent{
			Type: "header", Engine: eng.String(), Vars: len(c.Latches),
			Projection: seq(1, len(c.Latches)), Workers: workers,
		})
	}
	defer func() {
		if sw != nil {
			sw.close() // also when Compute panics mid-stream
		}
	}()
	res, err := s.compute(c, target, preimage.Options{
		Engine: eng, Parallel: workers, Budget: bud, Stats: s.reg,
		Runtime: s.runtimeFor(r),
		StateSink: func(cb cube.Cube) {
			if sw == nil {
				open()
			}
			sendCube(sw, cb, cancel)
		},
	})
	if err != nil {
		// Compute reports errors before its search starts, so no cube
		// has been sunk and no stream opened.
		httpError(w, http.StatusUnprocessableEntity, "preimage: %v", err)
		return
	}
	if sw == nil {
		// The run sank no cube: its cover, if any, goes out now.
		open()
		for _, cb := range res.States.Cubes() {
			if !sendCube(sw, cb, cancel) {
				break
			}
		}
	}
	summary := s.summarize(res.Stats, sw.sent, res.AbortReason, time.Since(start).Milliseconds())
	summary.Truncated = res.Aborted
	summary.Count = res.Count.String()
	sw.emit(summary)
	s.reg.Counter("server.streamed-cubes").Add(sw.sent)
	s.reg.Histogram("server.latency." + eng.String()).Observe(time.Since(start))
}

// sessionRequest is the JSON body of POST /v1/sessions.
type sessionRequest struct {
	// Name is the client-chosen session id (server-assigned if empty).
	Name string `json:"name"`
	// Bench is the ISCAS-89 BENCH netlist text.
	Bench string `json:"bench"`
	// Target holds the 01X target patterns (one per latch position)
	// whose backward reachability the session iterates.
	Target []string `json:"target"`
	// Workers is the solver pool size (clamped under the server cap).
	Workers int `json:"workers"`
	// Requested budget, clamped under the fence. The budget is
	// session-global: it bounds the cumulative solve work of every step
	// (and Timeout the wall-clock from creation), matching internal/incr
	// semantics.
	Timeout      string `json:"timeout"`
	MaxConflicts uint64 `json:"max_conflicts"`
	MaxDecisions uint64 `json:"max_decisions"`
	MaxCubes     uint64 `json:"max_cubes"`
	MaxBDDNodes  int    `json:"max_bdd_nodes"`
}

var sessionSeq atomic.Uint64

// handleSessionCreate opens a named incremental backward-reachability
// session: the circuit is encoded once, and each subsequent step call
// advances one frontier on the persistent solver pool. Creating past
// the LRU capacity evicts (and closes) the idlest session.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("server.requests").Inc()
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req sessionRequest
	if err := json.Unmarshal(data, &req); err != nil {
		httpError(w, http.StatusBadRequest, "malformed JSON body: %v", err)
		return
	}
	c, err := circuit.ParseBenchString("payload", req.Bench)
	if err != nil {
		httpError(w, http.StatusBadRequest, "malformed BENCH circuit: %v", err)
		return
	}
	target, err := targetCover(c, req.Target)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	workers := req.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > s.cfg.MaxWorkers {
		workers = s.cfg.MaxWorkers
	}
	var reqBudget budget.Budget
	if req.Timeout != "" {
		d, err := time.ParseDuration(req.Timeout)
		if err != nil || d < 0 {
			httpError(w, http.StatusBadRequest, "bad timeout %q", req.Timeout)
			return
		}
		reqBudget.Timeout = d
	}
	reqBudget.MaxConflicts = req.MaxConflicts
	reqBudget.MaxDecisions = req.MaxDecisions
	reqBudget.MaxCubes = req.MaxCubes
	reqBudget.MaxBDDNodes = req.MaxBDDNodes
	bud := s.fenceFor(r).Clamp(nil, reqBudget)

	id := req.Name
	if id == "" {
		id = fmt.Sprintf("s%d", sessionSeq.Add(1))
	}

	isess, err := preimage.OpenSession(c, false, preimage.Options{
		Incremental: true, Parallel: workers, Budget: bud, Stats: s.reg, Runtime: s.runtimeFor(r),
	})
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "encoding circuit: %v", err)
		return
	}
	sess := &session{
		id:      id,
		created: time.Now(),
		sess:    isess,
		walk:    preimage.NewSessionWalk(c, isess, target),
	}
	sess.touch()

	evicted, err := s.store.insert(sess)
	if err != nil {
		isess.Close()
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	for _, old := range evicted {
		old.close()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(map[string]any{
		"id":      id,
		"latches": len(c.Latches),
		"inputs":  len(c.Inputs),
		"workers": isess.Workers(),
		"evicted": evictedIDs(evicted),
	})
}

func evictedIDs(evicted []*session) []string {
	out := []string{}
	for _, s := range evicted {
		out = append(out, s.id)
	}
	return out
}

// handleSessionStep advances a session one reachability frontier.
func (s *Server) handleSessionStep(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("server.requests").Inc()
	sess, ok := s.store.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	tok, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer s.adm.release(tok)

	start := time.Now()
	sess.mu.Lock()
	if sess.sess.Closed() {
		sess.mu.Unlock()
		httpError(w, http.StatusGone, "session %q was evicted", sess.id)
		return
	}
	out, err := sess.step()
	sess.mu.Unlock()
	if err != nil {
		if errors.Is(err, incr.ErrClosed) {
			httpError(w, http.StatusGone, "session %q was evicted", sess.id)
		} else {
			httpError(w, http.StatusInternalServerError, "step: %v", err)
		}
		return
	}
	s.reg.Histogram("server.latency.session-step").Observe(time.Since(start))
	if out.Frontier == nil {
		out.Frontier = []string{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"id":         sess.id,
		"step":       out.Step,
		"frontier":   out.Frontier,
		"new_states": out.NewStates,
		"fixpoint":   out.Fixpoint,
		"truncated":  out.Aborted,
		"reason":     out.Reason,
	})
}

// handleSessionDelete closes a session explicitly.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("server.requests").Inc()
	sess, ok := s.store.remove(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	sess.close()
	w.WriteHeader(http.StatusNoContent)
}

// handleSessionList reports the live sessions, most recently used first.
func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("server.requests").Inc()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.store.list())
}

// targetCover builds the target cover from 01X patterns, checked by
// trans.ParseTarget. Patterns may arrive as repeated values or
// comma-separated.
func targetCover(c *circuit.Circuit, raw []string) (*cube.Cover, error) {
	var patterns []string
	for _, r := range raw {
		for _, p := range strings.Split(r, ",") {
			if p = strings.TrimSpace(p); p != "" {
				patterns = append(patterns, p)
			}
		}
	}
	if len(patterns) == 0 {
		return nil, fmt.Errorf("no target patterns given")
	}
	return trans.ParseTarget(len(c.Latches), patterns...)
}

// dimacsVars renders variables as 1-based DIMACS numbers.
func dimacsVars(vars []lit.Var) []int {
	out := make([]int, len(vars))
	for i, v := range vars {
		out[i] = int(v) + 1
	}
	return out
}

// seq returns [from, from+n) as a slice.
func seq(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}
