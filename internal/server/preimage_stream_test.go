package server

// /v1/preimage streaming: the blocking and disjoint engines at one
// worker write each state cube as the search finds it, and every engine
// streams exactly the cover preimage.Compute returns.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"allsatpre/internal/circuit"
	"allsatpre/internal/cube"
	"allsatpre/internal/gen"
	"allsatpre/internal/genspec"
	"allsatpre/internal/preimage"
	"allsatpre/internal/stats"
	"allsatpre/internal/trans"
)

// TestPreimageStreamsComputeCover posts preimage requests for every
// engine at one and two workers and checks the stream against
// preimage.Compute on the same circuit: the same state cubes in the same
// order, the same count, and a complete summary. For the blocking and
// disjoint engines at one worker these cubes were written as the search
// found them.
func TestPreimageStreamsComputeCover(t *testing.T) {
	srv := New(Config{MaxWorkers: 2}) // the default cap is GOMAXPROCS
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cases := []struct {
		c      *circuit.Circuit
		target string
	}{
		{gen.Counter(6, true, false), "XXXXX1"},
		{gen.SLike(gen.SLikeParams{Seed: 3, Inputs: 4, Latches: 6, Gates: 60}), "1XXXXX"},
	}
	for _, tc := range cases {
		bench := circuit.BenchString(tc.c)
		c, err := circuit.ParseBenchString("payload", bench)
		if err != nil {
			t.Fatal(err)
		}
		target, err := trans.ParseTarget(len(c.Latches), tc.target)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range []string{"disjoint", "blocking", "lifting", "success", "bdd"} {
			for _, workers := range []int{1, 2} {
				tag := fmt.Sprintf("%s/%s/%s/workers=%d", tc.c.Name, tc.target, engine, workers)
				eng, err := genspec.Engine(engine)
				if err != nil {
					t.Fatal(err)
				}
				q := url.Values{"engine": {engine}, "workers": {fmt.Sprint(workers)}, "target": {tc.target}}
				cubes, summary := readPreimageStream(t, ts.URL+"/v1/preimage?"+q.Encode(), bench)
				want, err := preimage.Compute(c, target, preimage.Options{Engine: eng, Parallel: workers})
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if summary.Truncated || summary.Count != want.Count.String() || summary.Cubes != uint64(len(cubes)) {
					t.Fatalf("%s: summary %+v, Compute counts %v", tag, summary, want.Count)
				}
				if got, wantCubes := strings.Join(cubes, " "), coverString(want.States); got != wantCubes {
					t.Fatalf("%s: streamed\n  %s\nCompute's States\n  %s", tag, got, wantCubes)
				}
			}
		}
	}
}

// readPreimageStream posts bench to u and returns the streamed cube
// patterns and the summary, failing unless the stream is a header, cube
// lines and one summary.
func readPreimageStream(t *testing.T, u, bench string) ([]string, event) {
	t.Helper()
	resp, err := http.Post(u, "text/plain", strings.NewReader(bench))
	if err != nil {
		t.Fatalf("POST %s: %v", u, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", u, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	if hdr := decodeLine(t, sc); hdr.Type != "header" {
		t.Fatalf("POST %s: first line %+v, want the header", u, hdr)
	}
	var cubes []string
	for {
		ev := decodeLine(t, sc)
		switch ev.Type {
		case "cube":
			cubes = append(cubes, ev.Cube)
		case "summary":
			if sc.Scan() {
				t.Fatalf("POST %s: line %q after the summary", u, sc.Text())
			}
			return cubes, ev
		default:
			t.Fatalf("POST %s: unexpected %+v", u, ev)
		}
	}
}

// coverString renders a cover's cubes in order, space-separated.
func coverString(cv *cube.Cover) string {
	var parts []string
	for _, c := range cv.Cubes() {
		parts = append(parts, c.String())
	}
	return strings.Join(parts, " ")
}

// TestPreimageStreamsIncrementallyAndDisconnectAborts mirrors the
// enumerate test: the blocking engine enumerates the preimage of a
// 40-bit counter's top bit one state at a time, about 2^39 cubes, so
// any cube the client reads was written while the search ran. Walking
// away must cancel the search and end the handler.
func TestPreimageStreamsIncrementallyAndDisconnectAborts(t *testing.T) {
	reg := stats.NewRegistry("test")
	srv := New(Config{Stats: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	target := strings.Repeat("X", 39) + "1"
	bench := circuit.BenchString(gen.Counter(40, true, false))
	// A server that held the cubes back until the search ended would
	// never answer; the timeout turns that into a failure.
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(ts.URL+"/v1/preimage?engine=blocking&target="+target, "text/plain",
		strings.NewReader(bench))
	if err != nil {
		t.Fatalf("POST /v1/preimage: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	hdr := decodeLine(t, sc)
	if hdr.Type != "header" || hdr.Engine != "blocking" || hdr.Vars != 40 {
		t.Fatalf("bad header event: %+v", hdr)
	}
	for i := 0; i < 3; i++ {
		ev := decodeLine(t, sc)
		if ev.Type != "cube" || len(ev.Cube) != 40 {
			t.Fatalf("cube %d: %+v", i, ev)
		}
	}
	resp.Body.Close()
	waitCounter(t, reg, "server.completed", 1)
}

// TestPreimageComputeErrorAnswers422: an error from Compute is a 422
// with a JSON error body, not a stream, on the streaming engines too.
func TestPreimageComputeErrorAnswers422(t *testing.T) {
	srv := New(Config{})
	srv.compute = func(*circuit.Circuit, *cube.Cover, preimage.Options) (*preimage.Result, error) {
		return nil, errors.New("no instance")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	bench := circuit.BenchString(gen.Counter(3, true, false))
	for _, engine := range []string{"disjoint", "blocking", "success"} {
		resp, err := http.Post(ts.URL+"/v1/preimage?target=XX1&engine="+engine, "text/plain", strings.NewReader(bench))
		if err != nil {
			t.Fatalf("POST /v1/preimage: %v", err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity || err != nil || !strings.Contains(e.Error, "no instance") {
			t.Fatalf("%s: status %d, error %q (%v), want 422 naming the Compute error", engine, resp.StatusCode, e.Error, err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q, want application/json", engine, ct)
		}
	}
}

// TestStreamCubeCapAtExactCount: a max-cubes cap equal to a stream's
// exact cube count ends it complete, and one cube less cuts it, for the
// cube engines of /v1/enumerate and for the preimage engines whose cap
// counts the streamed cubes, at one and two workers.
func TestStreamCubeCapAtExactCount(t *testing.T) {
	srv := New(Config{MaxWorkers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{}
	endpoints := []struct {
		path, body, query string
		engines           []string
	}{
		// (x1 ∨ x2) ∧ (¬x1 ∨ x3): four of the eight assignments.
		{"/v1/enumerate", "p cnf 3 2\n1 2 0\n-1 3 0\n", "", []string{"blocking", "disjoint", "lifting", "success"}},
		{"/v1/preimage", circuit.BenchString(gen.Counter(6, true, false)), "target=XXXXX1&", []string{"blocking", "disjoint"}},
	}
	for _, ep := range endpoints {
		for _, engine := range ep.engines {
			for _, workers := range []int{1, 2} {
				query := fmt.Sprintf("%sengine=%s&workers=%d", ep.query, engine, workers)
				total, summary := cutStream(t, client, ts.URL+ep.path, query, ep.body, 0, nil)
				if summary == nil || summary.Truncated || total < 2 {
					t.Fatalf("%s?%s: uncut run of %d cubes ended with %+v", ep.path, query, total, summary)
				}
				for _, k := range []int{total, total - 1} {
					capped := fmt.Sprintf("%s&max-cubes=%d", query, k)
					cubes, summary := cutStream(t, client, ts.URL+ep.path, capped, ep.body, 0, nil)
					wantCut := k < total
					if summary == nil || cubes != k || summary.Truncated != wantCut ||
						(wantCut && summary.Reason != "cube-limit") {
						t.Fatalf("%s?%s: %d cubes of %d ended with %+v, want truncated=%v",
							ep.path, capped, cubes, total, summary, wantCut)
					}
				}
			}
		}
	}
	client.CloseIdleConnections()
}
