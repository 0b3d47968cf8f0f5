package server

// Tests of the stream writer's framing and flush policy: cube lines are
// byte-identical to the encoder's, and a cube written behind a stalled
// iterator still reaches the client within flushDelay.

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	"allsatpre/internal/stats"
)

func TestStreamCubeLineMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cubes := []cube.Cube{{}}
	for n := 1; n <= 64; n++ {
		c := make(cube.Cube, n)
		for i := range c {
			c[i] = []lit.Tern{lit.False, lit.True, lit.Unknown}[rng.Intn(3)]
		}
		cubes = append(cubes, c)
	}
	var line []byte
	for _, c := range cubes {
		want, err := json.Marshal(cubeEvent{Type: "cube", Cube: c.String()})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		line = appendCubeLine(line[:0], c)
		if string(line) != string(want) {
			t.Fatalf("cube %q: line %q, want %q", c.String(), line, want)
		}
	}
}

func TestStreamWriterFlushesStalledCube(t *testing.T) {
	release := make(chan struct{})
	done := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(done)
		sw := newStreamWriter(w)
		defer sw.close()
		sw.emit(headerEvent{Type: "header", Engine: "disjoint", Vars: 2})
		sp := cube.NewSpace([]lit.Var{0, 1})
		sw.cube(sp.CubeOf("01"))
		sw.cube(sp.CubeOf("1X"))
		<-release // an iterator that stalls after producing two cubes
	}))
	defer ts.Close()
	defer func() { close(release); <-done }()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	lines := make(chan event, 3) // the header and two cubes: sends never block
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev event
			if json.Unmarshal(sc.Bytes(), &ev) == nil {
				lines <- ev
			}
		}
		close(lines)
	}()
	timeout := time.After(time.Second)
	for _, want := range []string{"header", "01", "1X"} {
		select {
		case ev, ok := <-lines:
			if !ok {
				t.Fatalf("stream ended before %q", want)
			}
			got := ev.Cube
			if ev.Type == "header" {
				got = "header"
			}
			if got != want {
				t.Fatalf("got %+v, want %q", ev, want)
			}
		case <-timeout:
			t.Fatalf("%q not delivered within 1s while the handler was stalled", want)
		}
	}
}

func TestEnumerateLatencyKeyedByEngine(t *testing.T) {
	reg := stats.NewRegistry("test")
	srv := New(Config{Stats: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, name := range []string{"sd", "success"} {
		resp, err := http.Post(ts.URL+"/v1/enumerate?engine="+name, "text/plain",
			strings.NewReader("p cnf 3 2\n1 2 0\n-1 3 0\n"))
		if err != nil {
			t.Fatalf("POST engine=%s: %v", name, err)
		}
		sc := bufio.NewScanner(resp.Body)
		if hdr := decodeLine(t, sc); hdr.Engine != name {
			t.Fatalf("engine=%s: header names %q", name, hdr.Engine)
		}
		for sc.Scan() {
		}
		resp.Body.Close()
	}
	waitCounter(t, reg, "server.completed", 2)
	if n := reg.Counter("server.latency.success-driven.count").Load(); n != 2 {
		t.Fatalf("server.latency.success-driven has %d observations, want 2", n)
	}
	for _, key := range []string{"server.latency.sd.count", "server.latency.success.count"} {
		if n := reg.Counter(key).Load(); n != 0 {
			t.Fatalf("%s has %d observations, want 0", key, n)
		}
	}
}
