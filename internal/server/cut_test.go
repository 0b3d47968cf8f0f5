package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"allsatpre/internal/circuit"
	"allsatpre/internal/gen"
	"allsatpre/internal/stats"
)

// random3CNF renders a random 3-CNF formula over n variables with m
// clauses as DIMACS text.
func random3CNF(rng *rand.Rand, n, m int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "p cnf %d %d\n", n, m)
	for i := 0; i < m; i++ {
		for _, v := range rng.Perm(n)[:3] {
			if rng.Intn(2) == 0 {
				v = -v - 1
			} else {
				v++
			}
			fmt.Fprintf(&b, "%d ", v)
		}
		b.WriteString("0\n")
	}
	return b.String()
}

// cutStream posts body to url (an endpoint's) with the given query and
// reads the NDJSON stream, calling cut with the response body once k
// cube lines have arrived (never when cut is nil); reading stops there
// if cut returns true. It returns the cube lines read and the summary
// line, nil if none was read.
func cutStream(t *testing.T, client *http.Client, url, query, body string, k int, cut func(io.Closer) bool) (int, *event) {
	t.Helper()
	resp, err := client.Post(url+"?"+query, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", query, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	cubes, lines := 0, 0
	var summary *event
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("%s: bad NDJSON line %q: %v", query, sc.Text(), err)
		}
		lines++
		switch {
		case lines == 1 && ev.Type != "header":
			t.Fatalf("%s: first line %+v, want the header", query, ev)
		case summary != nil:
			t.Fatalf("%s: a %q line after the summary", query, ev.Type)
		case ev.Type == "summary":
			summary = &ev
		case ev.Type == "cube":
			if cubes++; cubes == k && cut != nil && cut(resp.Body) {
				return cubes, nil
			}
		}
	}
	return cubes, summary
}

// TestStreamCutPoints cuts /v1/enumerate and /v1/preimage streams of
// each SAT engine at one and two workers at a random cube k, in three
// ways: a max-cubes=k cap, a client that disconnects after k cube lines,
// and a server drain begun after k cube lines. No cut may panic or leave
// a handler goroutine behind; a capped stream carries at most min(k,
// total) cubes, exactly that many where the cap counts the streamed
// cubes themselves, and says truncated when k < total; and no stream
// that says truncated:false carries fewer cubes than the uncut run.
// The preimage circuit is counter:6 under XXXXX1, whose preimage every
// engine covers with more than one cube.
func TestStreamCutPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	endpoints := []struct {
		path, body, query string
	}{
		{"/v1/enumerate", random3CNF(rng, 14, 24), ""},
		{"/v1/preimage", circuit.BenchString(gen.Counter(6, true, false)), "target=XXXXX1&"},
	}
	client := &http.Client{Transport: &http.Transport{}}
	before := goruntime.NumGoroutine()
	serve := func() (*Server, *httptest.Server, *stats.Registry) {
		reg := stats.NewRegistry("cut")
		srv := New(Config{MaxWorkers: 2, Stats: reg}) // the default cap is GOMAXPROCS
		return srv, httptest.NewServer(srv.Handler()), reg
	}
	complete := func(tag string, cubes, total int, summary *event) {
		t.Helper()
		if summary != nil && !summary.Truncated && cubes != total {
			t.Fatalf("%s: truncated:false with %d cubes, the uncut run has %d", tag, cubes, total)
		}
	}
	for _, ep := range endpoints {
		for _, engine := range []string{"disjoint", "blocking", "lifting", "success"} {
			for _, workers := range []int{1, 2} {
				query := fmt.Sprintf("%sengine=%s&workers=%d", ep.query, engine, workers)
				name := ep.path + "?" + query
				body := ep.body
				srv, ts, reg := serve()
				url := ts.URL + ep.path
				total, summary := cutStream(t, client, url, query, body, 0, nil)
				if summary == nil || summary.Truncated || total == 0 || summary.Cubes != uint64(total) {
					t.Fatalf("%s: uncut run of %d cubes ended with %+v", name, total, summary)
				}

				// The cap counts engine cubes. A preimage stream's state
				// cubes are those cubes themselves only for the blocking and
				// disjoint engines: lifting's are reduced, and the success
				// engine's are projected from (state, input) cubes.
				exact := ep.path == "/v1/enumerate" || engine == "disjoint" || engine == "blocking"
				k := 1 + rng.Intn(total+1)
				capped := fmt.Sprintf("%s&max-cubes=%d", query, k)
				tag := ep.path + "?" + capped
				cubes, summary := cutStream(t, client, url, capped, body, 0, nil)
				if summary == nil || cubes > min(k, total) || (exact && cubes != min(k, total)) || summary.Cubes != uint64(cubes) {
					t.Fatalf("%s: %d cubes of %d ended with %+v", tag, cubes, total, summary)
				}
				if k < total && !summary.Truncated {
					t.Fatalf("%s: %d of %d cubes without truncated:true", tag, cubes, total)
				}
				complete(tag, cubes, total, summary)

				k = 1 + rng.Intn(total+1)
				tag = fmt.Sprintf("%s/disconnect@%d", name, k)
				cubes, summary = cutStream(t, client, url, query, body, k, func(b io.Closer) bool { b.Close(); return true })
				if cubes != min(k, total) {
					t.Fatalf("%s: read %d cubes of %d", tag, cubes, total)
				}
				complete(tag, cubes, total, summary)
				waitCounter(t, reg, "server.completed", 3)
				ts.Close()
				srv.Close()

				srv, ts, _ = serve()
				url = ts.URL + ep.path
				k = 1 + rng.Intn(total+1)
				tag = fmt.Sprintf("%s/shutdown@%d", name, k)
				cubes, summary = cutStream(t, client, url, query, body, k, func(io.Closer) bool { srv.BeginShutdown(); return false })
				if summary == nil {
					t.Fatalf("%s: the drained stream ended without a summary", tag)
				}
				if summary.Truncated && summary.Reason != "shutdown" {
					t.Fatalf("%s: drained stream truncated by %q", tag, summary.Reason)
				}
				complete(tag, cubes, total, summary)
				ts.Close()
				srv.Close()
			}
		}
	}
	client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before the cuts, %d after", before, goruntime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
