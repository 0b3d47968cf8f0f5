package server

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"allsatpre/internal/incr"
	"allsatpre/internal/preimage"
	"allsatpre/internal/stats"
)

// session is one tenant's persistent incremental-reachability state:
// the incr.Session (solver pool + BDD manager alive across steps) and
// the preimage.Walk over it that turns repeated Step calls into a
// backward reachability walk, one layer per HTTP request.
//
// incr.Session is not safe for concurrent use; mu serializes steps
// against each other and against the eviction Close (see the contract
// on incr.Session). The store's lock is never held while mu is.
type session struct {
	id      string
	created time.Time

	mu   sync.Mutex
	sess *incr.Session
	walk *preimage.Walk

	// Listing-visible mirrors of the walk, updated atomically so
	// GET /v1/sessions never blocks behind (or races with) a long step.
	stepsDone    atomic.Int64
	fixpointSeen atomic.Bool
	lastUsedNano atomic.Int64
}

func (s *session) touch() { s.lastUsedNano.Store(time.Now().UnixNano()) }

// stepOutcome is one reachability layer, ready for JSON rendering.
type stepOutcome struct {
	Step      int
	Frontier  []string // 01X patterns in latch declaration order
	NewStates string   // exact minterm count of the new layer
	Fixpoint  bool
	Aborted   bool
	Reason    string
}

// step advances the session one layer. Once the walk has ended — a
// fixpoint, or a truncated layer — nothing is solved and the reply
// repeats the ended walk's verdict with no new states. Caller holds s.mu.
func (s *session) step() (*stepOutcome, error) {
	w := s.walk
	solved, layers := w.Steps, w.Layers()
	if err := w.Step(); err != nil {
		return nil, err
	}
	s.stepsDone.Store(int64(w.Steps))
	s.fixpointSeen.Store(w.Fixpoint)
	out := &stepOutcome{Step: w.Steps, Fixpoint: w.Fixpoint, Aborted: w.Aborted}
	if w.Aborted {
		out.Reason = w.AbortReason.String()
	}
	switch {
	case w.Steps == solved:
		// The walk had ended: nothing was solved.
	case w.Layers() == layers:
		out.NewStates = "0"
	default:
		for _, c := range w.Frontier(layers).Cubes() {
			out.Frontier = append(out.Frontier, c.String())
		}
		out.NewStates = w.Count(layers).String()
	}
	return out, nil
}

// close tears the session down, waiting for an in-flight step.
func (s *session) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sess.Close()
}

// sessionStore is the bounded, named session map: most-recently-used
// sessions at the front of the LRU list, and inserting past capacity
// evicts (and closes) the back — so solver/BDD residency is bounded by
// capacity regardless of how many tenants show up.
type sessionStore struct {
	mu   sync.Mutex
	cap  int
	byID map[string]*list.Element
	lru  *list.List // of *session

	active  *stats.Counter // created, paired with the two below
	evicted *stats.Counter
	closed  *stats.Counter
	reg     *stats.Registry
}

func newSessionStore(capacity int, reg *stats.Registry) *sessionStore {
	return &sessionStore{
		cap:     capacity,
		byID:    map[string]*list.Element{},
		lru:     list.New(),
		active:  reg.Counter("server.sessions-created"),
		evicted: reg.Counter("server.sessions-evicted"),
		closed:  reg.Counter("server.sessions-closed"),
		reg:     reg,
	}
}

func (st *sessionStore) gauge() {
	st.reg.SetGauge("server.sessions-active", int64(st.lru.Len()))
}

// insert registers a new session, evicting LRU entries past capacity.
// The evicted sessions are returned still open: the caller closes them
// outside the store lock (close blocks on in-flight steps).
func (st *sessionStore) insert(s *session) ([]*session, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.byID[s.id]; dup {
		return nil, fmt.Errorf("session %q already exists", s.id)
	}
	st.byID[s.id] = st.lru.PushFront(s)
	var evicted []*session
	for st.lru.Len() > st.cap {
		back := st.lru.Back()
		old := back.Value.(*session)
		st.lru.Remove(back)
		delete(st.byID, old.id)
		evicted = append(evicted, old)
		st.evicted.Inc()
	}
	st.active.Inc()
	st.gauge()
	return evicted, nil
}

// get returns the named session and marks it most-recently-used.
func (st *sessionStore) get(id string) (*session, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.byID[id]
	if !ok {
		return nil, false
	}
	st.lru.MoveToFront(el)
	s := el.Value.(*session)
	s.touch()
	return s, true
}

// remove unregisters the named session without closing it.
func (st *sessionStore) remove(id string) (*session, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.byID[id]
	if !ok {
		return nil, false
	}
	st.lru.Remove(el)
	delete(st.byID, id)
	st.closed.Inc()
	st.gauge()
	return el.Value.(*session), true
}

// sessionInfo is one row of the listing endpoint.
type sessionInfo struct {
	ID        string `json:"id"`
	Direction string `json:"direction"`
	Steps     int    `json:"steps"`
	Fixpoint  bool   `json:"fixpoint"`
	IdleMS    int64  `json:"idle_ms"`
}

func (st *sessionStore) list() []sessionInfo {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]sessionInfo, 0, st.lru.Len())
	now := time.Now()
	for el := st.lru.Front(); el != nil; el = el.Next() {
		s := el.Value.(*session)
		out = append(out, sessionInfo{
			ID:        s.id,
			Direction: "backward",
			Steps:     int(s.stepsDone.Load()),
			Fixpoint:  s.fixpointSeen.Load(),
			IdleMS:    (now.UnixNano() - s.lastUsedNano.Load()) / int64(time.Millisecond),
		})
	}
	return out
}

// closeAll drains the store on server shutdown.
func (st *sessionStore) closeAll() {
	st.mu.Lock()
	var all []*session
	for el := st.lru.Front(); el != nil; el = el.Next() {
		all = append(all, el.Value.(*session))
	}
	st.lru.Init()
	st.byID = map[string]*list.Element{}
	st.gauge()
	st.mu.Unlock()
	for _, s := range all {
		s.close()
	}
}
