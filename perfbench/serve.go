package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"time"

	"allsatpre/internal/server"
	"allsatpre/internal/stats"
)

// service is an in-process enumeration server with cmd/serve's default
// configuration, listening on loopback, plus the client that drives it.
type service struct {
	reg     *stats.Registry
	srv     *server.Server
	hs      *http.Server
	base    string
	client  *http.Client
	done    chan error
	stopped bool
}

func startService(clients int) (*service, error) {
	reg := stats.NewRegistry("serve")
	srv := server.New(server.Config{
		MaxSessions:  server.DefaultMaxSessions,
		MaxBodyBytes: server.DefaultMaxBodyBytes,
		Stats:        reg,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &service{
		reg:  reg,
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the server the way cmd/serve does on SIGTERM and waits for
// its serving goroutine to exit. Stopping twice is a no-op.
func (s *service) stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	s.srv.BeginShutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		fmt.Println("note: server shutdown:", err)
	}
	s.srv.Close()
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Println("note: server exited:", err)
	}
	s.client.CloseIdleConnections()
}

type headerLine struct {
	Type       string `json:"type"`
	Engine     string `json:"engine"`
	Projection []int  `json:"projection"`
}

type summaryLine struct {
	Type      string `json:"type"`
	Cubes     uint64 `json:"cubes"`
	Count     string `json:"count"`
	Truncated bool   `json:"truncated"`
	Reason    string `json:"reason"`
}

// response is one NDJSON stream as the client saw it.
type response struct {
	status    int
	sent      time.Time
	ttfb      time.Duration // until the response headers (the first flush)
	ttfc      time.Duration // until the first cube line; 0 without cubes
	total     time.Duration // until the last byte
	bytes     int64
	cubes     []pattern
	summary   summaryLine
	malformed string // why the stream broke the protocol, if it did
}

var cubePrefix = []byte(`{"type":"cube","cube":"`)

// post sends one request and reads the stream to its end.
func (s *service) post(path string, q url.Values, body string) response {
	r := response{sent: time.Now()}
	resp, err := s.client.Post(s.base+path+"?"+q.Encode(), "text/plain", strings.NewReader(body))
	if err != nil {
		r.malformed = "request: " + err.Error()
		r.total = time.Since(r.sent)
		return r
	}
	defer resp.Body.Close()
	r.ttfb = time.Since(r.sent)
	r.status = resp.StatusCode
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	lines := 0
	sawSummary := false
	for {
		line, err := br.ReadSlice('\n')
		r.bytes += int64(len(line))
		if len(line) > 0 && err == nil {
			lines++
			switch {
			case r.status != http.StatusOK:
			case sawSummary:
				r.malformed = "line after the summary"
			case bytes.HasPrefix(line, cubePrefix):
				if lines == 1 {
					r.malformed = "cube before the header"
				}
				rest := line[len(cubePrefix):]
				end := bytes.IndexByte(rest, '"')
				p, perr := parsePattern(string(rest[:max(end, 0)]))
				if end < 0 || perr != nil {
					r.malformed = fmt.Sprintf("bad cube line %q", line)
				}
				if len(r.cubes) == 0 {
					r.ttfc = time.Since(r.sent)
				}
				r.cubes = append(r.cubes, p)
			case lines == 1:
				var h headerLine
				if json.Unmarshal(line, &h) != nil || h.Type != "header" {
					r.malformed = fmt.Sprintf("first line is not a header: %q", line)
				}
			default:
				if json.Unmarshal(line, &r.summary) != nil || r.summary.Type != "summary" {
					r.malformed = fmt.Sprintf("unexpected line %q", line)
				}
				sawSummary = true
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil && !errors.Is(err, bufio.ErrBufferFull) {
			r.malformed = "reading stream: " + err.Error()
			break
		}
	}
	r.total = time.Since(r.sent)
	if r.status == http.StatusOK && r.malformed == "" {
		switch {
		case !sawSummary:
			r.malformed = "stream ended without a summary"
		case r.summary.Cubes != uint64(len(r.cubes)):
			r.malformed = fmt.Sprintf("summary reports %d cubes, stream carried %d", r.summary.Cubes, len(r.cubes))
		}
	}
	return r
}

// failure describes a response that failed at the protocol level, or ""
// when it is a well-formed 200 stream.
func (r *response) failure() string {
	switch {
	case r.malformed != "" && r.status == 0:
		return r.malformed
	case r.status != http.StatusOK:
		return fmt.Sprintf("HTTP %d", r.status)
	case r.malformed != "":
		return "malformed stream: " + r.malformed
	}
	return ""
}

// regDelta reads the registry before and after a phase.
type regDelta map[string]float64

func snapshot(reg *stats.Registry) regDelta {
	out := regDelta{}
	for _, kv := range reg.Snapshot().Metrics {
		var v float64
		fmt.Sscan(kv.Value, &v)
		out[kv.Key] = v
	}
	return out
}

// serverLayers fills the runtime, pool and server metrics from the
// registry change over the traced phase of `requests` requests.
func serverLayers(lv layerValues, before, after regDelta, requests int) {
	d := func(k string) float64 { return after[k] - before[k] }
	rate := func(hit, miss string) float64 {
		if t := d(hit) + d(miss); t > 0 {
			return d(hit) / t
		}
		return 0
	}
	per := float64(max(requests, 1))
	lv["runtime.solver_hit_rate"] = rate("runtime.solver-hits", "runtime.solver-misses")
	lv["runtime.manager_hit_rate"] = rate("runtime.manager-hits", "runtime.manager-misses")
	lv["runtime.bytes_retained"] = after["runtime.bytes-retained"]
	lv["runtime.sched_jobs"] = d("runtime.sched-jobs") / per
	lv["runtime.sched_queue_peak"] = after["runtime.sched-queue-peak"]
	lv["pool.steals"] = d("pool.steals") / per
	lv["pool.imbalance"] = after["pool.imbalance"]
	lv["server.queue_entered"] = d("server.queue-entered")
	lv["server.rejected"] = d("server.rejected")
}
