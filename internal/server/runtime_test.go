package server

// Tests for the pooled-runtime serving features: the admission wait
// queue, per-tenant fences, the fence-spec parser, pprof gating, and
// end-to-end equivalence of pooled vs fresh-construction request
// execution.

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/gen"
	"allsatpre/internal/stats"
)

func TestParseFenceSpec(t *testing.T) {
	got, err := ParseFenceSpec("alice:timeout=30s,cubes=100000; bob:conflicts=5000,bdd-nodes=200,decisions=7")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]budget.Fence{
		"alice": {MaxTimeout: 30 * time.Second, MaxCubes: 100000},
		"bob":   {MaxConflicts: 5000, MaxBDDNodes: 200, MaxDecisions: 7},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d tenants, want %d", len(got), len(want))
	}
	for k, f := range want {
		if got[k] != f {
			t.Fatalf("tenant %q: got %+v, want %+v", k, got[k], f)
		}
	}
	if got, err := ParseFenceSpec("  "); err != nil || got != nil {
		t.Fatalf("empty spec: got %v, %v; want nil, nil", got, err)
	}
	for _, bad := range []string{
		"noseparator",
		"alice:cubes",
		"alice:cubes=abc",
		"alice:timeout=-3s",
		"alice:warp=9",
		"a:cubes=1;a:cubes=2",
	} {
		if _, err := ParseFenceSpec(bad); err == nil {
			t.Fatalf("spec %q: expected an error", bad)
		}
	}
}

// TestAdmissionQueueAdmitsWhenSlotFrees: with AdmissionWait set, a
// request arriving at a saturated gate waits instead of bouncing, and
// completes once the slot holder finishes.
func TestAdmissionQueueAdmitsWhenSlotFrees(t *testing.T) {
	reg := stats.NewRegistry("test")
	srv := New(Config{MaxConcurrent: 1, AdmissionWait: 15 * time.Second, Stats: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Hold the only slot with an endless stream.
	holder, err := http.Post(ts.URL+"/v1/enumerate?engine=blocking", "text/plain",
		strings.NewReader(wideDimacs(40)))
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(holder.Body)
	decodeLine(t, sc) // header: the slot is definitely held now

	type outcome struct {
		status int
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/enumerate", "text/plain",
			strings.NewReader("p cnf 2 1\n1 2 0\n"))
		if err != nil {
			done <- outcome{err: err}
			return
		}
		defer resp.Body.Close()
		done <- outcome{status: resp.StatusCode}
	}()

	waitCounter(t, reg, "server.queue-entered", 1)
	select {
	case o := <-done:
		t.Fatalf("queued request finished while the slot was held: %+v", o)
	default:
	}
	holder.Body.Close() // cancels the endless solve, freeing the slot
	select {
	case o := <-done:
		if o.err != nil || o.status != http.StatusOK {
			t.Fatalf("queued request: %+v, want 200", o)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("queued request never admitted after the slot freed")
	}
	if got := reg.Counter("server.rejected").Load(); got != 0 {
		t.Fatalf("server.rejected = %d, want 0", got)
	}
}

// TestAdmissionQueueCapRejects: once the wait queue itself is full, the
// next request gets the immediate 429 (with a Retry-After hint).
func TestAdmissionQueueCapRejects(t *testing.T) {
	reg := stats.NewRegistry("test")
	srv := New(Config{
		MaxConcurrent: 1, AdmissionWait: 15 * time.Second, AdmissionQueue: 1,
		Stats: reg,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	holder, err := http.Post(ts.URL+"/v1/enumerate?engine=blocking", "text/plain",
		strings.NewReader(wideDimacs(40)))
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Body.Close()
	sc := bufio.NewScanner(holder.Body)
	decodeLine(t, sc)

	// Fill the one queue slot with a second request.
	go http.Post(ts.URL+"/v1/enumerate", "text/plain",
		strings.NewReader("p cnf 2 1\n1 2 0\n"))
	waitCounter(t, reg, "server.queue-entered", 1)

	third, err := http.Post(ts.URL+"/v1/enumerate", "text/plain",
		strings.NewReader("p cnf 2 1\n1 2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer third.Body.Close()
	if third.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue request: status %d, want 429", third.StatusCode)
	}
	if third.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}
}

// TestTenantFenceClampsPerTenant: a tenant listed in TenantFences gets
// its own ceilings; everyone else keeps the global fence.
func TestTenantFenceClampsPerTenant(t *testing.T) {
	srv := New(Config{
		TenantFences: map[string]budget.Fence{"capped": {MaxCubes: 2}},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	enumerate := func(tenant string) (cubes int, reason string) {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/enumerate?engine=disjoint",
			strings.NewReader("p cnf 3 1\n1 2 3 0\n"))
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for {
			ev := decodeLine(t, sc)
			switch ev.Type {
			case "cube":
				cubes++
			case "summary":
				return cubes, ev.Reason
			}
		}
	}

	if n, reason := enumerate("capped"); n > 2 || reason != "cube-limit" {
		t.Fatalf("capped tenant: %d cubes, reason %q; want <=2 and \"cube-limit\"", n, reason)
	}
	if n, reason := enumerate("other"); reason != "" || n == 0 {
		t.Fatalf("unlisted tenant: %d cubes, reason %q; want a complete cover", n, reason)
	}
}

func TestPprofGatedByConfig(t *testing.T) {
	off := httptest.NewServer(New(Config{}).Handler())
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof reachable without EnablePprof")
	}

	on := httptest.NewServer(New(Config{EnablePprof: true}).Handler())
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with EnablePprof: status %d, want 200", resp.StatusCode)
	}
}

// TestPooledServerEquivalentStreams: the same request sequence against a
// pooled server (warm free-list, the default) and a fresh-construction
// server (free-list disabled) must produce identical NDJSON cube
// sequences — and the pooled server must actually hit its warm pool on
// repeat requests. Multi-worker iterator streams arrive in scheduling
// order (see allsat.ParallelIterator), so for them the contract is the
// same cube multiset without duplicates, pairwise disjoint for the
// disjoint engine; single-worker and success streams must match exactly.
func TestPooledServerEquivalentStreams(t *testing.T) {
	regPooled := stats.NewRegistry("pooled")
	// The default worker cap is GOMAXPROCS: pin it to the largest count
	// requested below, so the workers=4 streams run four workers on any host.
	pooled := New(Config{MaxConcurrent: 4, MaxWorkers: 4, Stats: regPooled})
	fresh := New(Config{MaxConcurrent: 4, MaxWorkers: 4, PoolBytes: -1})
	tsPooled := httptest.NewServer(pooled.Handler())
	defer tsPooled.Close()
	defer pooled.Close()
	tsFresh := httptest.NewServer(fresh.Handler())
	defer tsFresh.Close()
	defer fresh.Close()

	dimacs := "p cnf 6 3\n1 2 3 0\n-1 4 0\n2 -5 6 0\n"
	stream := func(base, query string) []string {
		resp, err := http.Post(base+"/v1/enumerate?"+query, "text/plain",
			strings.NewReader(dimacs))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var cubes []string
		sc := bufio.NewScanner(resp.Body)
		for {
			ev := decodeLine(t, sc)
			if ev.Type == "summary" {
				if ev.Truncated {
					t.Fatalf("unexpected truncation: %q", ev.Reason)
				}
				return cubes
			}
			if ev.Type == "cube" {
				cubes = append(cubes, ev.Cube)
			}
		}
	}

	for _, tc := range []struct {
		query     string
		unordered bool // multi-worker iterator: arrival order is not pinned
		disjoint  bool
	}{
		{"engine=disjoint", false, true},
		{"engine=disjoint&workers=4", true, true},
		{"engine=success", false, false},
		{"engine=success&workers=4", false, false},
		{"engine=blocking&workers=2", true, false},
		{"engine=lifting", false, false},
	} {
		for rep := 0; rep < 2; rep++ { // second pass runs on warm state
			got := stream(tsPooled.URL, tc.query)
			want := stream(tsFresh.URL, tc.query)
			if tc.unordered {
				got, want = sortedUnique(t, tc.query, got), sortedUnique(t, tc.query, want)
			}
			if strings.Join(got, "|") != strings.Join(want, "|") {
				t.Fatalf("%s rep %d: pooled stream differs from fresh\npooled: %v\nfresh:  %v",
					tc.query, rep, got, want)
			}
			if tc.disjoint {
				requireDisjoint(t, tc.query, got)
			}
		}
	}
	if reg := regPooled; reg.Counter("runtime.solver-hits").Load() == 0 {
		t.Fatal("pooled server never reused a warm solver")
	}
}

// sortedUnique returns a sorted copy of a cube stream, failing the test
// if any cube occurs twice.
func sortedUnique(t *testing.T, tag string, cubes []string) []string {
	t.Helper()
	out := append([]string(nil), cubes...)
	sort.Strings(out)
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			t.Fatalf("%s: cube %s streamed twice", tag, out[i])
		}
	}
	return out
}

// requireDisjoint fails the test unless the 01X cube patterns are
// pairwise disjoint: every pair disagrees on some position both fix.
func requireDisjoint(t *testing.T, tag string, cubes []string) {
	t.Helper()
	for i, a := range cubes {
		for _, b := range cubes[i+1:] {
			disjoint := false
			for k := range a {
				if a[k] != 'X' && b[k] != 'X' && a[k] != b[k] {
					disjoint = true
					break
				}
			}
			if !disjoint {
				t.Fatalf("%s: cubes %s and %s overlap", tag, a, b)
			}
		}
	}
}

// TestPreimageBDDWorkersSameStream: the BDD engine runs one relational
// product whatever the worker count, so a workers=4 request streams the
// same cube lines, in the same order, and the same count as workers=1.
func TestPreimageBDDWorkersSameStream(t *testing.T) {
	srv := New(Config{MaxConcurrent: 2, MaxWorkers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	bench := circuit.BenchString(gen.SLike(gen.SLikeParams{Seed: 3, Inputs: 4, Latches: 6, Gates: 60}))
	stream := func(workers string) ([]string, string) {
		resp, err := http.Post(ts.URL+"/v1/preimage?engine=bdd&target=XX1XX0&workers="+workers,
			"text/plain", strings.NewReader(bench))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%s: status %d", workers, resp.StatusCode)
		}
		var cubes []string
		sc := bufio.NewScanner(resp.Body)
		for {
			ev := decodeLine(t, sc)
			switch ev.Type {
			case "cube":
				cubes = append(cubes, ev.Cube)
			case "summary":
				if ev.Truncated {
					t.Fatalf("workers=%s: truncated (%s)", workers, ev.Reason)
				}
				return cubes, ev.Count
			}
		}
	}

	want, wantCount := stream("1")
	if len(want) == 0 {
		t.Fatal("empty preimage; pick another target")
	}
	got, gotCount := stream("4")
	if strings.Join(got, " ") != strings.Join(want, " ") || gotCount != wantCount {
		t.Fatalf("workers=4 streamed %v (count %s), workers=1 %v (count %s)", got, gotCount, want, wantCount)
	}
}

// TestSessionStepWorkersJoinScheduler: the steps of a multi-worker
// session submit their subcube jobs to the server's shared scheduler
// (visible as growth of the runtime.sched-jobs counter) instead of a
// private scheduler per step, and walk the same frontiers as a
// one-worker session.
func TestSessionStepWorkersJoinScheduler(t *testing.T) {
	reg := stats.NewRegistry("session-sched")
	srv := New(Config{MaxConcurrent: 2, MaxWorkers: 4, Stats: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	bench := circuit.BenchString(gen.SLike(gen.SLikeParams{Seed: 3, Inputs: 4, Latches: 6, Gates: 60}))
	walk := func(name string, workers int) []stepReply {
		req := map[string]any{"name": name, "bench": bench, "target": []string{"XX1XX0"}, "workers": workers}
		if code := postJSON(t, ts.URL+"/v1/sessions", req, nil); code != http.StatusCreated {
			t.Fatalf("%s: create status %d", name, code)
		}
		return walkToFixpoint(t, ts.URL, name)
	}

	want := walk("one", 1)
	before := reg.Counter("runtime.sched-jobs").Load()
	got := walk("four", 4)
	if after := reg.Counter("runtime.sched-jobs").Load(); after <= before {
		t.Fatalf("runtime.sched-jobs did not grow (%d -> %d): the steps bypassed the shared scheduler",
			before, after)
	}
	if len(got) != len(want) {
		t.Fatalf("workers=4 walk took %d steps, workers=1 took %d", len(got), len(want))
	}
	for i := range want {
		if got[i].NewStates != want[i].NewStates {
			t.Fatalf("step %d: workers=4 found %s new states, workers=1 %s",
				i+1, got[i].NewStates, want[i].NewStates)
		}
	}
}
