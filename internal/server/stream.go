package server

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"allsatpre/internal/allsat"
	"allsatpre/internal/budget"
	"allsatpre/internal/cube"
)

// The NDJSON stream protocol: one JSON object per line. A stream is
//
//	{"type":"header", ...}        exactly once, first
//	{"type":"cube","cube":"01X"}  zero or more, as the search produces them
//	{"type":"summary", ...}       exactly once, last
//
// /v1/enumerate writes each cube as its iterator produces it (the
// success engine's once its cover is built); /v1/preimage writes the
// blocking and disjoint engines' state cubes as the search finds them at
// one worker, and every other run's cover once Compute returns (see
// handlePreimage). The summary's truncated/reason pair is the HTTP
// spelling of the repository-wide Aborted contract: a stream without
// truncated=true is the complete projection; with it, the cubes seen
// are a sound under-approximation and reason says which limit (or
// "shutdown", or "cancelled") cut it short. A cube cap cuts a stream
// only if another cube exists beyond it.

type headerEvent struct {
	Type       string `json:"type"` // "header"
	Engine     string `json:"engine"`
	Vars       int    `json:"vars"`
	Projection []int  `json:"projection"` // 1-based DIMACS numbering
	Workers    int    `json:"workers"`
}

// cubeEvent documents the cube line's shape; the writer appends its bytes
// directly (appendCubeLine) instead of encoding it per cube.
type cubeEvent struct {
	Type string `json:"type"` // "cube"
	Cube string `json:"cube"` // 01X pattern over the projection, in order
}

type summaryEvent struct {
	Type      string `json:"type"` // "summary"
	Cubes     uint64 `json:"cubes"`
	Solutions uint64 `json:"solutions"`
	Count     string `json:"count,omitempty"` // exact minterms, when computed
	Truncated bool   `json:"truncated"`
	Reason    string `json:"reason,omitempty"`
	Decisions uint64 `json:"decisions"`
	Conflicts uint64 `json:"conflicts"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// flushDelay bounds how long a cube written to the stream may sit in the
// response buffer before it is flushed to the client.
const flushDelay = 2 * time.Millisecond

// streamWriter writes NDJSON events with coalesced flushes. The header,
// the first cube and the summary are flushed at once, so the client sees
// the stream open and its first answer without delay. Later cubes go
// into net/http's response buffer, which sends a chunk whenever it
// fills; the first cube written after a flush arms a timer that flushes
// the buffer within flushDelay, so a stalled iterator never holds back a
// cube it has already produced. A flush per cube would cost one write
// syscall (and one client read) per short line, more than the
// enumeration itself; the bytes streamed are the same either way.
//
// mu guards the encoder, the flush and the sticky error against the
// timer's flush. Write errors (client went away) are sticky; callers
// poll failed() and stop enumerating. close stops the timer, so nothing
// touches the ResponseWriter after the handler returns.
type streamWriter struct {
	mu      sync.Mutex
	w       http.ResponseWriter
	enc     *json.Encoder
	rc      *http.ResponseController
	line    []byte      // reused cube line buffer
	timer   *time.Timer // flushes pending cubes; nil until first armed
	pending bool        // cubes written since the last flush
	closed  bool
	err     error
	sent    uint64 // written by the handler goroutine only
}

func newStreamWriter(w http.ResponseWriter) *streamWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	return &streamWriter{w: w, enc: json.NewEncoder(w), rc: http.NewResponseController(w)}
}

// emit writes a header or summary event and flushes it at once, along
// with any cubes still pending.
func (sw *streamWriter) emit(v any) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.err != nil {
		return
	}
	if err := sw.enc.Encode(v); err != nil {
		sw.err = err
		return
	}
	sw.flushLocked()
}

// cubeLinePrefix and cubeLineSuffix frame a cube line exactly as
// json.Encoder renders cubeEvent; 01X patterns need no escaping.
const (
	cubeLinePrefix = `{"type":"cube","cube":"`
	cubeLineSuffix = "\"}\n"
)

// appendCubeLine appends the NDJSON line of a cube event to b.
func appendCubeLine(b []byte, c cube.Cube) []byte {
	b = append(b, cubeLinePrefix...)
	b = c.AppendPattern(b)
	return append(b, cubeLineSuffix...)
}

// cube writes one cube line. The first cube of a stream is flushed at
// once; later ones wait for a full buffer or for the flushDelay timer.
func (sw *streamWriter) cube(c cube.Cube) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.err != nil {
		return
	}
	sw.line = appendCubeLine(sw.line[:0], c)
	if _, err := sw.w.Write(sw.line); err != nil {
		sw.err = err
		return
	}
	sw.sent++
	switch {
	case sw.sent == 1:
		sw.flushLocked()
	case !sw.pending:
		sw.pending = true
		if sw.timer == nil {
			sw.timer = time.AfterFunc(flushDelay, sw.timedFlush)
		} else {
			sw.timer.Reset(flushDelay)
		}
	}
}

// timedFlush is the timer's callback: it flushes the cubes written since
// the last flush, unless the handler flushed them already or returned.
func (sw *streamWriter) timedFlush() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.closed || !sw.pending || sw.err != nil {
		return
	}
	sw.flushLocked()
}

func (sw *streamWriter) flushLocked() {
	sw.pending = false
	if err := sw.rc.Flush(); err != nil {
		sw.err = err
	}
}

func (sw *streamWriter) failed() bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.err != nil
}

// close stops the flush timer; after it returns the writer never touches
// the ResponseWriter again. Bytes still buffered go out when the handler
// returns and net/http finishes the response.
func (sw *streamWriter) close() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.closed = true
	if sw.timer != nil {
		sw.timer.Stop()
	}
}

// reasonString renders a stop reason for the summary line, folding the
// server-side shutdown drain into its own named reason so clients can tell
// "the server is restarting, retry elsewhere" from "my budget tripped".
func (s *Server) reasonString(r budget.Reason) string {
	if r == budget.Cancelled && s.drained() {
		return "shutdown"
	}
	if r == budget.None {
		return ""
	}
	return r.String()
}

// summarize builds the trailer for a streamed enumeration.
func (s *Server) summarize(st allsat.Stats, sent uint64, reason budget.Reason, elapsedMS int64) summaryEvent {
	return summaryEvent{
		Type:      "summary",
		Cubes:     sent,
		Solutions: st.Solutions,
		Truncated: reason != budget.None,
		Reason:    s.reasonString(reason),
		Decisions: st.Decisions,
		Conflicts: st.Conflicts,
		ElapsedMS: elapsedMS,
	}
}
