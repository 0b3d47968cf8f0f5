package server

// Hostile-input fuzzing of the daemon's request decoding: any body and
// query must end in a 200 stream with exactly one summary line, or in a
// 4xx with a JSON error body — never a panic, a 5xx or a torn stream.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cnf"
	"allsatpre/internal/gen"
)

// fuzzMaxVars bounds the DIMACS variables a fuzzed enumerate body may
// declare. The daemon allocates per declared variable before admission
// (up to 2^31 of them), so a fuzzer that grows the header past this
// would exhaust memory instead of reporting a failure.
const fuzzMaxVars = 1 << 16

// fuzzServer builds a server whose fence bounds every request the fuzzer
// sends: small bodies, two workers, and a timeout, cube, decision and
// node ceiling under any query.
func fuzzServer(f *testing.F) http.Handler {
	srv := New(Config{
		MaxBodyBytes: 4096,
		MaxWorkers:   2,
		Fence: budget.Fence{
			MaxTimeout: 50 * time.Millisecond, MaxCubes: 64,
			MaxDecisions: 20000, MaxConflicts: 20000, MaxBDDNodes: 100000,
		},
	})
	f.Cleanup(srv.Close)
	return srv.Handler()
}

// serveFuzzed sends one request straight to the handler, so a panic
// fails the fuzz target instead of being recovered by net/http, and
// checks the response's shape.
func serveFuzzed(t *testing.T, h http.Handler, path, query, body string) {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.URL.RawQuery = query
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	switch code := rec.Code; code {
	case http.StatusOK:
		checkFuzzedStream(t, rec.Body.Bytes())
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		checkFuzzedError(t, code, rec.Body.Bytes())
	default:
		t.Fatalf("status %d for query %q body %q", code, query, body)
	}
}

// checkFuzzedError checks a 4xx body is a JSON error.
func checkFuzzedError(t *testing.T, code int, body []byte) {
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("status %d with body %q: want a JSON error", code, body)
	}
}

// checkFuzzedStream checks a 200 response is a header line, cube lines
// and exactly one summary line, last.
func checkFuzzedStream(t *testing.T, body []byte) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	var types []string
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		types = append(types, ev.Type)
	}
	if len(types) < 2 || types[0] != "header" || types[len(types)-1] != "summary" {
		t.Fatalf("stream lines %v: want header, cubes, summary", types)
	}
	for _, typ := range types[1 : len(types)-1] {
		if typ != "cube" {
			t.Fatalf("stream lines %v: a %q line between header and summary", types, typ)
		}
	}
}

// enumerateSeeds are bodies the enumerate fuzzer starts from, the
// oversized header among them.
var enumerateSeeds = []string{
	"p cnf 3 2\n1 2 0\n-1 3 0\n",
	"c proj 1 3\np cnf 3 2\n1 2 0\n-1 3 0\n",
	"p cnf 1000000000000000 0",
	"p cnf 12 1\n1 2 0\n",
	"p cnf 2 2\n1 0\n-1 0\n",
	"",
}

// FuzzEnumerateRequest drives POST /v1/enumerate with a fuzzed DIMACS
// body and query.
func FuzzEnumerateRequest(f *testing.F) {
	queries := []string{
		"", "engine=blocking", "engine=lifting&workers=2", "engine=success&simplify=off",
		"engine=disjoint&proj=1,2&max-cubes=1", "proj=1,1", "workers=0", "timeout=1ns",
		"max-decisions=3&max-conflicts=x", "engine=bdd", "simplify=maybe&max-bdd-nodes=-1",
	}
	for i, body := range enumerateSeeds {
		f.Add(body, queries[i%len(queries)])
	}
	for _, q := range queries {
		f.Add(enumerateSeeds[0], q)
	}
	h := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body, query string) {
		if formula, _, err := cnf.ParseDimacsString(body); err == nil && formula.NumVars > fuzzMaxVars {
			t.Skip("declares more variables than the fuzzer's memory allows")
		}
		serveFuzzed(t, h, "/v1/enumerate", query, body)
	})
}

// FuzzPreimageRequest drives POST /v1/preimage with a fuzzed BENCH body
// and query.
func FuzzPreimageRequest(f *testing.F) {
	bench := circuit.BenchString(gen.Counter(3, true, false))
	queries := []string{
		"target=1X0", "target=1X0&engine=bdd&workers=2", "target=XXX,000&engine=disjoint&max-cubes=1",
		"target=11", "target=1Z0", "", "target=XX1&engine=lifting&timeout=1ns",
		"target=XX1&engine=blocking&max-decisions=2", "target=0X0&engine=magic",
	}
	for _, q := range queries {
		f.Add(bench, q)
	}
	f.Add("INPUT(a)\nOUTPUT(b)\nb = DFF(b)\n", "target=1")
	f.Add("INPUT(broken\n", "target=0")
	h := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body, query string) {
		serveFuzzed(t, h, "/v1/preimage", query, body)
	})
}

// FuzzSessionRequest drives POST /v1/sessions with a fuzzed JSON body.
// A session is created (201, naming its id), refused for a name already
// in use (409), or the body is rejected with a JSON error; the server
// keeps at most its LRU capacity of sessions open.
func FuzzSessionRequest(f *testing.F) {
	bench := circuit.BenchString(gen.Counter(3, true, false))
	for _, req := range []sessionRequest{
		{Name: "a", Bench: bench, Target: []string{"XX1"}},
		{Bench: bench, Target: []string{"1X0", "000"}, Workers: 8, Timeout: "1ns"},
		{Bench: bench, Target: []string{"XX1"}, MaxCubes: 1, MaxDecisions: 2, MaxBDDNodes: -1},
		{Bench: bench, Target: []string{"11"}},
		{Bench: bench, Target: []string{"1Z0"}, Timeout: "soon"},
		{Bench: "INPUT(broken\n", Target: []string{"0"}},
		{Bench: bench},
	} {
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add(`{"bench":`)
	f.Add(`{"workers":"two"}`)
	f.Add("")
	h := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch code := rec.Code; code {
		case http.StatusCreated:
			var reply struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply.ID == "" {
				t.Fatalf("201 with body %q: want the session id", rec.Body.String())
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusConflict, http.StatusUnprocessableEntity:
			checkFuzzedError(t, code, rec.Body.Bytes())
		default:
			t.Fatalf("status %d for body %q", code, body)
		}
	})
}

// FuzzParseFenceSpec checks the -tenant-fences parser never panics, and
// that every tenant it accepts is named.
func FuzzParseFenceSpec(f *testing.F) {
	for _, s := range []string{
		"", "alice:timeout=30s,cubes=100000;bob:timeout=2s,conflicts=50000",
		"a:bdd-nodes=-1", "a:timeout=1h;a:cubes=1", ":cubes=1", "a:cubes", ";;", "a:decisions=18446744073709551616",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fences, err := ParseFenceSpec(spec)
		if err != nil {
			return
		}
		for tenant := range fences {
			if tenant == "" || strings.TrimSpace(tenant) != tenant {
				t.Fatalf("spec %q accepted tenant %q", spec, tenant)
			}
		}
	})
}
