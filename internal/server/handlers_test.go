package server

// Table-driven rejection tests: every malformed request must produce a
// 4xx with a machine-readable JSON error, never a hang, a 500, or a
// half-written stream.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"allsatpre/internal/circuit"
	"allsatpre/internal/gen"
)

func TestHandlerRejections(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bench := circuit.BenchString(gen.Counter(2, false, false))
	goodDimacs := "p cnf 2 1\n1 2 0\n"

	cases := []struct {
		name, method, path, body string
		wantCode                 int
		wantErr                  string
	}{
		{"malformed dimacs", "POST", "/v1/enumerate", "p cnf oops\n", 400, "malformed DIMACS"},
		{"unknown enumerate engine", "POST", "/v1/enumerate?engine=magic", goodDimacs, 400, "unknown engine"},
		{"bdd enumerate engine", "POST", "/v1/enumerate?engine=bdd", goodDimacs, 400, "cannot enumerate raw CNF"},
		{"bad projection", "POST", "/v1/enumerate?proj=0", goodDimacs, 400, "projection"},
		{"repeated projection", "POST", "/v1/enumerate?proj=1,1", goodDimacs, 400, "listed twice"},
		{"repeated file projection", "POST", "/v1/enumerate", "c proj 2 1 2\n" + goodDimacs, 400, "listed twice"},
		{"bad timeout", "POST", "/v1/enumerate?timeout=fast", goodDimacs, 400, "timeout"},
		{"bad workers", "POST", "/v1/enumerate?workers=-2", goodDimacs, 400, "workers"},
		{"bad max-conflicts", "POST", "/v1/enumerate?max-conflicts=-1", goodDimacs, 400, "max-conflicts"},
		{"malformed bench", "POST", "/v1/preimage?target=00", "INPUT(broken\n", 400, "malformed BENCH"},
		{"unknown preimage engine", "POST", "/v1/preimage?engine=magic&target=00", bench, 400, "unknown engine"},
		{"missing target", "POST", "/v1/preimage", bench, 400, "no target"},
		{"target wrong length", "POST", "/v1/preimage?target=000", bench, 400, "latches"},
		{"target bad alphabet", "POST", "/v1/preimage?target=2Z", bench, 400, "invalid character"},
		{"session malformed json", "POST", "/v1/sessions", "{not json", 400, "malformed JSON"},
		{"step unknown session", "POST", "/v1/sessions/ghost/step", "", 404, "no session"},
		{"delete unknown session", "DELETE", "/v1/sessions/ghost", "", 404, "no session"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("building request: %v", err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.method, tc.path, err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantCode)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if !strings.Contains(e.Error, tc.wantErr) {
				t.Fatalf("error %q does not mention %q", e.Error, tc.wantErr)
			}
		})
	}
}

func TestRequestBodyLimit(t *testing.T) {
	srv := New(Config{MaxBodyBytes: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/enumerate", "text/plain",
		strings.NewReader(strings.Repeat("c padding line\n", 40)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&e)
	if !strings.Contains(e.Error, "64-byte limit") {
		t.Fatalf("error %q does not name the limit", e.Error)
	}
}

func TestSessionDuplicateName(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	body := map[string]any{
		"name":   "dup",
		"bench":  circuit.BenchString(gen.Counter(2, false, false)),
		"target": []string{"00"},
	}
	if code := postJSON(t, ts.URL+"/v1/sessions", body, nil); code != http.StatusCreated {
		t.Fatalf("first create: status %d", code)
	}
	var e struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, ts.URL+"/v1/sessions", body, &e); code != http.StatusConflict {
		t.Fatalf("duplicate create: status %d, want 409", code)
	}
	if !strings.Contains(e.Error, "already exists") {
		t.Fatalf("conflict error %q", e.Error)
	}
}
