package server

// End-to-end tests over a real HTTP round-trip (httptest.Server), proving
// the three service-level properties the subsystem exists for:
//
//   - streaming: cubes reach the client while the enumeration is still
//     running, not after it finishes;
//   - cancellation: a client that stops reading aborts the underlying
//     solve (observable as the admission slot being released);
//   - multi-tenancy: concurrent sessions with different budgets compute
//     independently-verified covers while the LRU bounds residency.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	"allsatpre/internal/gen"
	"allsatpre/internal/lit"
	"allsatpre/internal/preimage"
	"allsatpre/internal/simplify"
	"allsatpre/internal/stats"
	"allsatpre/internal/trans"
)

// wideDimacs builds a near-unconstrained formula: one clause over nVars
// variables. Blocking enumeration over the full projection yields about
// 2^nVars minterm cubes — it cannot complete within a test's lifetime,
// so any cube the client observes arrived before the solve finished.
func wideDimacs(nVars int) string {
	return fmt.Sprintf("p cnf %d 1\n1 2 0\n", nVars)
}

// event is the union of the NDJSON stream line shapes, for decoding.
type event struct {
	Type      string `json:"type"`
	Engine    string `json:"engine"`
	Vars      int    `json:"vars"`
	Cube      string `json:"cube"`
	Cubes     uint64 `json:"cubes"`
	Solutions uint64 `json:"solutions"`
	Count     string `json:"count"`
	Truncated bool   `json:"truncated"`
	Reason    string `json:"reason"`
}

func decodeLine(t *testing.T, sc *bufio.Scanner) event {
	t.Helper()
	if !sc.Scan() {
		t.Fatalf("stream ended early: %v", sc.Err())
	}
	var ev event
	if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
		t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
	}
	return ev
}

// waitCounter polls a registry counter until it reaches want; the only
// way to observe "the handler finished" from outside the HTTP surface.
func waitCounter(t *testing.T, reg *stats.Registry, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for reg.Counter(name).Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter %s stuck at %d, want >= %d", name, reg.Counter(name).Load(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestEnumerateStreamsIncrementallyAndDisconnectAborts(t *testing.T) {
	reg := stats.NewRegistry("test")
	srv := New(Config{Stats: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/enumerate?engine=blocking", "text/plain",
		strings.NewReader(wideDimacs(40)))
	if err != nil {
		t.Fatalf("POST /v1/enumerate: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	hdr := decodeLine(t, sc)
	if hdr.Type != "header" || hdr.Engine != "blocking" || hdr.Vars != 40 {
		t.Fatalf("bad header event: %+v", hdr)
	}
	// Reading cubes here at all proves incremental delivery: a ~2^40-cube
	// enumeration cannot have completed before the first line arrived.
	for i := 0; i < 3; i++ {
		ev := decodeLine(t, sc)
		if ev.Type != "cube" || len(ev.Cube) != 40 {
			t.Fatalf("cube %d: %+v", i, ev)
		}
	}
	// Walk away mid-stream. The dropped connection must cancel the solve
	// context and the handler must exit, releasing its admission slot.
	resp.Body.Close()
	waitCounter(t, reg, "server.completed", 1)
}

func TestEnumerateDisjointCompleteCover(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// (x1 v x2) & (!x1 v x3): exactly 4 of the 8 assignments.
	resp, err := http.Post(ts.URL+"/v1/enumerate?engine=disjoint", "text/plain",
		strings.NewReader("p cnf 3 2\n1 2 0\n-1 3 0\n"))
	if err != nil {
		t.Fatalf("POST /v1/enumerate: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if hdr := decodeLine(t, sc); hdr.Type != "header" {
		t.Fatalf("want header first, got %+v", hdr)
	}
	sp := cube.NewSpace([]lit.Var{0, 1, 2})
	var cubes []cube.Cube
	var summary event
	for {
		ev := decodeLine(t, sc)
		if ev.Type == "summary" {
			summary = ev
			break
		}
		cubes = append(cubes, sp.CubeOf(ev.Cube))
	}
	if summary.Truncated || summary.Reason != "" {
		t.Fatalf("complete enumeration reported truncated: %+v", summary)
	}
	if summary.Cubes != uint64(len(cubes)) {
		t.Fatalf("summary says %d cubes, stream had %d", summary.Cubes, len(cubes))
	}
	var total uint64
	for i, c := range cubes {
		total += c.Minterms()
		for j := i + 1; j < len(cubes); j++ {
			if !c.Disjoint(cubes[j]) {
				t.Fatalf("cubes %v and %v overlap", c, cubes[j])
			}
		}
	}
	if total != 4 {
		t.Fatalf("disjoint cover has %d minterms, want 4", total)
	}
}

// --- session helpers ---

type stepReply struct {
	ID        string   `json:"id"`
	Step      int      `json:"step"`
	Frontier  []string `json:"frontier"`
	NewStates string   `json:"new_states"`
	Fixpoint  bool     `json:"fixpoint"`
	Truncated bool     `json:"truncated"`
	Reason    string   `json:"reason"`
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if s, ok := body.(string); ok {
		rd = bytes.NewReader([]byte(s))
	} else {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	resp, err := http.Post(url, "application/json", rd)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

// walkToFixpoint steps a session until it reports fixpoint, retrying
// politely on 429 (the admission gate applies to steps too), and
// returns every step reply in order.
func walkToFixpoint(t *testing.T, url, id string) []stepReply {
	t.Helper()
	var steps []stepReply
	for i := 0; i < 64; i++ {
		var rep stepReply
		code := postJSON(t, url+"/v1/sessions/"+id+"/step", "", &rep)
		if code == http.StatusTooManyRequests {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if code != http.StatusOK {
			t.Fatalf("step %s: status %d", id, code)
		}
		if rep.Truncated {
			t.Fatalf("step %s truncated: %s", id, rep.Reason)
		}
		steps = append(steps, rep)
		if rep.Fixpoint {
			return steps
		}
	}
	t.Fatalf("session %s did not reach fixpoint in 64 steps", id)
	return nil
}

// verifyTenant checks a completed walk against the library run fresh:
// per-layer state counts against preimage.Reach, and the first frontier
// as a BDD set against preimage.Compute (preimage minus target).
func verifyTenant(t *testing.T, c *circuit.Circuit, target string, steps []stepReply) {
	t.Helper()
	n := len(target)
	tc := trans.TargetFromPatterns(n, target)
	ref, err := preimage.Reach(c, tc, 0, preimage.Options{})
	if err != nil {
		t.Fatalf("reference Reach: %v", err)
	}
	if !ref.Fixpoint {
		t.Fatalf("reference Reach did not converge")
	}
	var nonzero []string
	for _, s := range steps {
		if s.NewStates != "" && s.NewStates != "0" {
			nonzero = append(nonzero, s.NewStates)
		}
	}
	if len(nonzero) != len(ref.FrontierCounts)-1 {
		t.Fatalf("walk found %d productive layers, reference found %d",
			len(nonzero), len(ref.FrontierCounts)-1)
	}
	for k, got := range nonzero {
		if want := ref.FrontierCounts[k+1].String(); got != want {
			t.Fatalf("layer %d: %s new states, reference says %s", k+1, got, want)
		}
	}

	pre, err := preimage.Compute(c, tc, preimage.Options{})
	if err != nil {
		t.Fatalf("reference Compute: %v", err)
	}
	man := bdd.NewOrdered(pre.StateSpace.Vars())
	want := man.Diff(man.FromCover(pre.States), man.FromCover(tc))
	gotCover := cube.NewCover(pre.StateSpace)
	for _, p := range steps[0].Frontier {
		gotCover.Add(pre.StateSpace.CubeOf(p))
	}
	if got := man.FromCover(gotCover); got != want {
		t.Fatalf("step-1 frontier %v does not equal preimage \\ target", steps[0].Frontier)
	}
}

func TestConcurrentTenantsAndLRUEviction(t *testing.T) {
	reg := stats.NewRegistry("test")
	srv := New(Config{
		MaxSessions:   2,
		MaxConcurrent: 4,
		Fence:         budget.Fence{MaxConflicts: 50_000_000, MaxTimeout: 2 * time.Minute},
		Stats:         reg,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	c := gen.Counter(4, false, false)
	bench := circuit.BenchString(c)

	type createReply struct {
		ID      string   `json:"id"`
		Latches int      `json:"latches"`
		Evicted []string `json:"evicted"`
	}
	mk := func(name, target string, extra map[string]any) createReply {
		body := map[string]any{"name": name, "bench": bench, "target": []string{target}}
		for k, v := range extra {
			body[k] = v
		}
		var rep createReply
		if code := postJSON(t, ts.URL+"/v1/sessions", body, &rep); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", name, code)
		}
		return rep
	}

	// Fill capacity with an idle session plus tenant alice, then let
	// tenant bob's creation evict the idle one (LRU back). The two live
	// tenants request different budgets; the fence clamps both.
	mk("idle", "1100", nil)
	mk("alice", "0000", map[string]any{"max_conflicts": 40_000_000})
	bob := mk("bob", "0011", map[string]any{"timeout": "90s"})
	if len(bob.Evicted) != 1 || bob.Evicted[0] != "idle" {
		t.Fatalf("creating bob evicted %v, want [idle]", bob.Evicted)
	}
	if got := reg.Counter("server.sessions-evicted").Load(); got != 1 {
		t.Fatalf("sessions-evicted = %d, want 1", got)
	}

	// The evicted session is gone from the HTTP surface.
	var errRep map[string]any
	if code := postJSON(t, ts.URL+"/v1/sessions/idle/step", "", &errRep); code != http.StatusNotFound {
		t.Fatalf("stepping evicted session: status %d, want 404", code)
	}

	// Both tenants walk their reachability to fixpoint concurrently.
	results := map[string][]stepReply{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, id := range []string{"alice", "bob"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			steps := walkToFixpoint(t, ts.URL, id)
			mu.Lock()
			results[id] = steps
			mu.Unlock()
		}(id)
	}
	wg.Wait()

	verifyTenant(t, c, "0000", results["alice"])
	verifyTenant(t, c, "0011", results["bob"])

	// Listing shows exactly the two live tenants.
	resp, err := http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatalf("GET /v1/sessions: %v", err)
	}
	var infos []sessionInfo
	json.NewDecoder(resp.Body).Decode(&infos)
	resp.Body.Close()
	ids := map[string]bool{}
	for _, in := range infos {
		ids[in.ID] = true
	}
	if len(ids) != 2 || !ids["alice"] || !ids["bob"] {
		t.Fatalf("live sessions %v, want {alice, bob}", ids)
	}
}

func TestAdmissionSaturatedReturns429(t *testing.T) {
	reg := stats.NewRegistry("test")
	srv := New(Config{MaxConcurrent: 1, RetryAfter: 3 * time.Second, Stats: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Hold the only solve slot with an endless stream.
	resp, err := http.Post(ts.URL+"/v1/enumerate?engine=blocking", "text/plain",
		strings.NewReader(wideDimacs(40)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	sc := bufio.NewScanner(resp.Body)
	decodeLine(t, sc) // header: the slot is definitely held now

	second, err := http.Post(ts.URL+"/v1/enumerate", "text/plain",
		strings.NewReader("p cnf 2 1\n1 2 0\n"))
	if err != nil {
		t.Fatalf("second POST: %v", err)
	}
	defer second.Body.Close()
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d, want 429", second.StatusCode)
	}
	if ra := second.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	var e struct {
		Error string `json:"error"`
	}
	json.NewDecoder(second.Body).Decode(&e)
	if e.Error == "" {
		t.Fatalf("429 body carries no error message")
	}
	if got := reg.Counter("server.rejected").Load(); got != 1 {
		t.Fatalf("server.rejected = %d, want 1", got)
	}

	resp.Body.Close()
	waitCounter(t, reg, "server.completed", 1)
}

func TestShutdownDrainsStreamWithTruncatedSummary(t *testing.T) {
	reg := stats.NewRegistry("test")
	srv := New(Config{Stats: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/enumerate?engine=blocking", "text/plain",
		strings.NewReader(wideDimacs(40)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	decodeLine(t, sc) // header
	decodeLine(t, sc) // at least one cube in flight before the drain
	srv.BeginShutdown()

	// Cubes may keep flowing until the handler's next poll; the stream
	// must then end with a summary naming the shutdown.
	var summary event
	found := false
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if ev.Type == "summary" {
			summary, found = ev, true
		}
	}
	if !found {
		t.Fatalf("stream ended without a summary line: %v", sc.Err())
	}
	if !summary.Truncated || summary.Reason != "shutdown" {
		t.Fatalf("drain summary = %+v, want truncated with reason shutdown", summary)
	}
	waitCounter(t, reg, "server.shutdown-truncated", 1)
	srv.Close()
}

func TestSessionLifecycleOverHTTP(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	bench := circuit.BenchString(gen.Counter(3, false, false))
	var created map[string]any
	code := postJSON(t, ts.URL+"/v1/sessions",
		map[string]any{"name": "walk", "bench": bench, "target": []string{"000"}}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}

	// One step of a 3-bit counter toward 000: exactly its predecessor 111.
	var rep stepReply
	if code := postJSON(t, ts.URL+"/v1/sessions/walk/step", "", &rep); code != http.StatusOK {
		t.Fatalf("step: status %d", code)
	}
	if rep.Step != 1 || rep.NewStates != "1" || len(rep.Frontier) != 1 || rep.Frontier[0] != "111" {
		t.Fatalf("step 1 = %+v, want frontier [111] with 1 new state", rep)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/walk", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", resp.StatusCode)
	}
	if code := postJSON(t, ts.URL+"/v1/sessions/walk/step", "", nil); code != http.StatusNotFound {
		t.Fatalf("step after delete: status %d, want 404", code)
	}
}

// TestEnumerateSuccessSimplifyKeepsStream: engine=success preprocesses
// the payload like the iterator engines (projection frozen), and the
// streamed cover and count are the same with the pass on or off.
func TestEnumerateSuccessSimplifyKeepsStream(t *testing.T) {
	c := gen.SLike(gen.SLikeParams{Seed: 3, Inputs: 4, Latches: 6, Gates: 60})
	ss := preimage.StateSpace(c)
	target := cube.NewCover(ss)
	target.Add(ss.CubeOf("XX1XX0"))
	inst, err := trans.NewInstance(c, target)
	if err != nil {
		t.Fatal(err)
	}
	proj := append(append([]lit.Var(nil), inst.StateVars...), inst.InputVars...)
	if st := simplify.RunFrozen(inst.F.Clone(), proj).Stats; st.VarsEliminated == 0 {
		t.Fatal("the pass eliminates nothing on this instance; the test is vacuous")
	}
	dimacs := cnf.DimacsString(inst.F, proj)

	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	stream := func(query string) (cubes []string, count string) {
		resp, err := http.Post(ts.URL+"/v1/enumerate?engine=success&"+query, "text/plain",
			strings.NewReader(dimacs))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for {
			ev := decodeLine(t, sc)
			switch ev.Type {
			case "cube":
				cubes = append(cubes, ev.Cube)
			case "summary":
				if ev.Truncated {
					t.Fatalf("%s: truncated (%s)", query, ev.Reason)
				}
				return cubes, ev.Count
			}
		}
	}
	for _, workers := range []string{"1", "2"} {
		off, offCount := stream("simplify=off&workers=" + workers)
		on, onCount := stream("simplify=on&workers=" + workers)
		if len(off) == 0 {
			t.Fatal("empty preimage; pick another target")
		}
		if strings.Join(on, "|") != strings.Join(off, "|") || onCount != offCount {
			t.Fatalf("workers=%s: simplify changed the stream\non:  %v (%s)\noff: %v (%s)",
				workers, on, onCount, off, offCount)
		}
	}
}

// TestEnumerateSuccessCubeCap: the success-driven stream honors the cube
// cap like the iterator engines. A capped request streams the first cubes
// of the uncapped cover, counts only the states they cover, and says it
// was truncated by the cube limit — at every worker count.
func TestEnumerateSuccessCubeCap(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	// (x1 v x2) & (!x1 v x3) & (x4 v x5): the ISOP cover has 4 cubes.
	dimacs := "p cnf 5 3\n1 2 0\n-1 3 0\n4 5 0\n"
	sp := cube.NewSpace([]lit.Var{0, 1, 2, 3, 4})
	stream := func(query string) (cubes []string, summary event) {
		resp, err := http.Post(ts.URL+"/v1/enumerate?engine=success&"+query, "text/plain",
			strings.NewReader(dimacs))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for {
			ev := decodeLine(t, sc)
			switch ev.Type {
			case "cube":
				cubes = append(cubes, ev.Cube)
			case "summary":
				return cubes, ev
			}
		}
	}
	for _, workers := range []string{"1", "2"} {
		full, sum := stream("workers=" + workers)
		if sum.Truncated || len(full) < 3 || sum.Count != "12" {
			t.Fatalf("workers=%s: uncapped stream %v (%+v)", workers, full, sum)
		}
		for _, max := range []int{1, 2} {
			got, sum := stream(fmt.Sprintf("workers=%s&max-cubes=%d", workers, max))
			if !sum.Truncated || sum.Reason != "cube-limit" {
				t.Fatalf("workers=%s max-cubes=%d: summary %+v, want truncated by the cube limit",
					workers, max, sum)
			}
			if strings.Join(got, "|") != strings.Join(full[:max], "|") {
				t.Fatalf("workers=%s max-cubes=%d: streamed %v, want the first cubes of %v",
					workers, max, got, full)
			}
			kept := cube.NewCover(sp)
			for _, c := range got {
				kept.Add(sp.CubeOf(c))
			}
			m := bdd.NewOrdered(sp.Vars())
			if want := m.SatCount(m.FromCover(kept)).String(); sum.Count != want {
				t.Fatalf("workers=%s max-cubes=%d: count %s, want the kept cubes' %s",
					workers, max, sum.Count, want)
			}
		}
	}
}

// TestSessionTruncatedLayerEndsWalk: a truncated layer ends a session's
// walk as it ends Reach. No later step may claim a fixpoint (the layer
// that added nothing, or added only part of its states, proves nothing)
// or solve again from the partial frontier: each further step repeats
// the first truncation with no new states and no solver work.
func TestSessionTruncatedLayerEndsWalk(t *testing.T) {
	cases := []struct {
		name   string
		c      *circuit.Circuit
		target string
		budget map[string]any
	}{
		{"counter8-deadline", gen.Counter(8, false, false), "00000000",
			map[string]any{"timeout": "1ns"}},
		{"slike5-decisions", gen.SLike(gen.SLikeParams{Seed: 5, Inputs: 8, Latches: 10, Gates: 200}),
			"XXXXXXXXX1", map[string]any{"max_decisions": 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := stats.NewRegistry("test")
			srv := New(Config{Stats: reg})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			defer srv.Close()

			body := map[string]any{"name": "cut", "bench": circuit.BenchString(tc.c), "target": []string{tc.target}}
			for k, v := range tc.budget {
				body[k] = v
			}
			if code := postJSON(t, ts.URL+"/v1/sessions", body, nil); code != http.StatusCreated {
				t.Fatalf("create: status %d", code)
			}
			step := func() stepReply {
				t.Helper()
				var rep stepReply
				if code := postJSON(t, ts.URL+"/v1/sessions/cut/step", "", &rep); code != http.StatusOK {
					t.Fatalf("step: status %d", code)
				}
				return rep
			}
			var cut stepReply
			for i := 0; ; i++ {
				if i == 16 {
					t.Fatal("the budget never truncated a layer; the test is vacuous")
				}
				if cut = step(); cut.Fixpoint {
					t.Fatalf("step %d claimed a fixpoint before any truncation", cut.Step)
				}
				if cut.Truncated {
					break
				}
			}
			solves := reg.Counter("incr.steps").Load()
			for i := 0; i < 2; i++ {
				rep := step()
				if rep.Fixpoint {
					t.Fatalf("step after a truncated layer claimed a fixpoint: %+v", rep)
				}
				if !rep.Truncated || rep.Reason != cut.Reason || rep.Step != cut.Step ||
					rep.NewStates != "" || len(rep.Frontier) != 0 {
					t.Fatalf("step after the truncated layer %+v = %+v, want the ended walk's state", cut, rep)
				}
			}
			if got := reg.Counter("incr.steps").Load(); got != solves {
				t.Fatalf("steps after the truncated layer solved again (incr.steps %d -> %d)", solves, got)
			}
		})
	}
}

// TestSessionPreprocessesLikeReach: /v1/sessions opens its session
// through preimage's one session translation, so the base CNF is
// preprocessed as an incremental preimage.Reach's is, and every step
// finds the states that Reach's layer at the same depth finds.
func TestSessionPreprocessesLikeReach(t *testing.T) {
	c := gen.SLike(gen.SLikeParams{Seed: 5, Inputs: 8, Latches: 10, Gates: 200})
	const target = "XXXXXXXXX1"
	reg := stats.NewRegistry("test")
	srv := New(Config{Stats: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	body := map[string]any{"name": "simp", "bench": circuit.BenchString(c), "target": []string{target}}
	if code := postJSON(t, ts.URL+"/v1/sessions", body, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if n := reg.Counter("incr.simplify-vars-eliminated").Load(); n == 0 {
		t.Fatal("incr.simplify-vars-eliminated is 0: the session's base CNF was not preprocessed")
	}
	steps := walkToFixpoint(t, ts.URL, "simp")
	ref, err := preimage.Reach(c, trans.TargetFromPatterns(len(c.Latches), target), 0,
		preimage.Options{Incremental: true})
	if err != nil || !ref.Fixpoint {
		t.Fatalf("reference Reach: fixpoint %v, err %v", ref != nil && ref.Fixpoint, err)
	}
	if len(steps) != len(ref.FrontierCounts) {
		t.Fatalf("session took %d steps, Reach has %d frontiers", len(steps), len(ref.FrontierCounts))
	}
	for i, s := range steps {
		want := "0"
		if i+1 < len(ref.FrontierCounts) {
			want = ref.FrontierCounts[i+1].String()
		}
		if s.NewStates != want {
			t.Fatalf("step %d: %s new states, Reach's layer has %s", i+1, s.NewStates, want)
		}
	}
}
