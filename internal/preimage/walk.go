package preimage

import (
	"fmt"
	"math/big"
	"time"

	"allsatpre/internal/allsat"
	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cube"
	"allsatpre/internal/incr"
	"allsatpre/internal/stats"
)

// Walk is a breadth-first reachability walk, one layer per Step: the
// only code that turns layer state sets into frontiers. Reach,
// ForwardReach, the incremental KStepPreimage, CheckReachable's backward
// sweep and the server's sessions all run on it, so the Aborted contract
// is written once: a fixpoint is claimed only from a complete layer, and
// a truncated layer is merged (its states are genuine, at the right
// distance) and then ends the walk, because iterating from a partial
// frontier would assign wrong distances.
//
// Layer k is the set of states first reached at distance k (layer 0 is
// the start set). A complete layer's frontier cover is extracted at once,
// as the next step's target; counts, and the cover of a truncated layer,
// only when a caller reads them. A Walk is not safe for concurrent use.
type Walk struct {
	// Steps is the number of layers solved.
	Steps int
	// Fixpoint is true once a complete layer added no new state.
	Fixpoint bool
	// Aborted is true once a budget truncated a layer, which ended the
	// walk; AbortReason says which limit tripped.
	Aborted     bool
	AbortReason budget.Reason

	// stats accumulates the layers' search counters; bddNodes is the
	// peak per-layer engine node count.
	stats    allsat.Stats
	bddNodes int

	src   layerSource
	man   *bdd.Manager
	space *cube.Space // space frontier covers are extracted over, man's order
	canon *cube.Space // canonical state space of results
	// phases, when non-nil, receives a stepNN sub-registry per layer.
	phases *stats.Registry

	visited   bdd.Ref
	layers    []bdd.Ref
	frontiers []*cube.Cover // parallel to layers, nil until extracted
	counts    []*big.Int    // parallel to layers, nil until counted
}

// layer is one step's image or preimage, as a state set in the walk's
// manager.
type layer struct {
	set      bdd.Ref
	stats    allsat.Stats
	bddNodes int
	aborted  bool
	reason   budget.Reason
}

// layerSource computes the states one step away from a frontier cover
// (position k = latch k). reg, when non-nil, is the layer's stats phase.
type layerSource interface {
	layer(frontier *cube.Cover, reg *stats.Registry) (layer, error)
	close()
}

// useIncremental reports whether the session layer source applies: it
// implements only the success-driven engine.
func useIncremental(opts Options) bool {
	return opts.Incremental && opts.Engine == EngineSuccessDriven
}

// incrOptions translates preimage options into session options. It is
// the one translation: the walks and the server's sessions (through
// OpenSession) both open their sessions with it.
func incrOptions(opts Options) incr.Options {
	workers := opts.Parallel
	if workers < 1 {
		workers = 1
	}
	return incr.Options{
		Workers:  workers,
		Core:     coreOptions(opts),
		Budget:   opts.Budget,
		Simplify: opts.Simplify.Enabled(),
		Stats:    opts.Stats,
		Runtime:  opts.Runtime,
	}
}

// OpenSession opens an incremental session on c, backward or forward,
// under the session options opts translates to.
func OpenSession(c *circuit.Circuit, forward bool, opts Options) (*incr.Session, error) {
	return incr.Open(c, forward, incrOptions(opts))
}

// newWalk starts a walk from start (backward by preimages, or forward by
// images) over the layer source opts selects: one persistent incr
// session when useIncremental holds, otherwise a fresh Compute or Image
// per layer. The caller closes the walk.
func newWalk(c *circuit.Circuit, start *cube.Cover, forward bool, opts Options) (*Walk, error) {
	if useIncremental(opts) {
		sess, err := OpenSession(c, forward, opts)
		if err != nil {
			return nil, err
		}
		return NewSessionWalk(c, sess, start), nil
	}
	canon := StateSpace(c)
	man := bdd.NewOrdered(canon.Vars())
	src := &freshSource{c: c, opts: opts, step: compute, man: man}
	if forward {
		src.step = image
	}
	return startWalk(src, man, canon, canon, start), nil
}

// NewSessionWalk starts a walk from start over an open incremental
// session in either direction. The walk keeps its sets in the session's
// manager, whose order is the session's projection, one variable per
// latch in latch order. The session stays the caller's to close.
func NewSessionWalk(c *circuit.Circuit, sess *incr.Session, start *cube.Cover) *Walk {
	return startWalk(&sessionSource{sess: sess}, sess.Manager(), sess.ProjSpace(), StateSpace(c), start)
}

func startWalk(src layerSource, man *bdd.Manager, space, canon *cube.Space, start *cube.Cover) *Walk {
	w := &Walk{src: src, man: man, space: space, canon: canon}
	w.visited = man.FromCover(canonicalize(space, start))
	w.layers = []bdd.Ref{w.visited}
	w.frontiers = []*cube.Cover{canonicalize(canon, start)}
	w.counts = []*big.Int{nil}
	return w
}

func (w *Walk) close() { w.src.close() }

func (w *Walk) done() bool { return w.Fixpoint || w.Aborted }

// Layers returns the number of layers, the start set included.
func (w *Walk) Layers() int { return len(w.layers) }

// Step solves the next layer from the last frontier. It solves nothing
// once the walk has ended (Fixpoint or Aborted); an empty last layer is
// a fixpoint without a solve. Errors are reserved for malformed inputs
// and closed sessions.
func (w *Walk) Step() error {
	if w.done() {
		return nil
	}
	last := len(w.layers) - 1
	if w.layers[last] == bdd.False {
		w.Fixpoint = true
		return nil
	}
	var reg *stats.Registry
	if w.phases != nil {
		reg = w.phases.Phase(fmt.Sprintf("step%02d", w.Steps))
	}
	l, err := w.src.layer(w.Frontier(last), reg)
	if err != nil {
		return err
	}
	w.Steps++
	accumulate(&w.stats, l.stats)
	w.bddNodes = max(w.bddNodes, l.bddNodes)
	w.Aborted, w.AbortReason = l.aborted, l.reason
	newSet := w.man.Diff(l.set, w.visited)
	if newSet == bdd.False {
		// Convergence may be claimed only from a complete layer: a
		// truncated layer adding nothing proves nothing.
		w.Fixpoint = !l.aborted
		return nil
	}
	w.layers = append(w.layers, newSet)
	w.frontiers = append(w.frontiers, nil)
	w.counts = append(w.counts, nil)
	if !l.aborted {
		// A complete layer's frontier is the next step's target.
		w.Frontier(len(w.layers) - 1)
	}
	w.visited = w.man.Or(w.visited, newSet)
	return nil
}

// Frontier returns layer k as a cover position-aligned to the latch
// order, extracting it on first use.
func (w *Walk) Frontier(k int) *cube.Cover {
	if w.frontiers[k] == nil {
		w.frontiers[k] = w.man.ISOP(w.layers[k], w.space)
	}
	return w.frontiers[k]
}

// Count returns the exact number of states in layer k, counting it on
// first use.
func (w *Walk) Count(k int) *big.Int {
	if w.counts[k] == nil {
		w.counts[k] = w.man.SatCount(w.layers[k])
	}
	return w.counts[k]
}

// canonical re-expresses a walk cover over the canonical state space.
func (w *Walk) canonical(cv *cube.Cover) *cube.Cover {
	if cv.Space() == w.canon {
		return cv
	}
	return canonicalize(w.canon, cv)
}

// run steps until the walk ends or maxSteps layers were solved
// (maxSteps <= 0: until the walk ends), counting each layer as it lands:
// a count's memo is sized by the manager's node count, which only grows.
func (w *Walk) run(maxSteps int) error {
	w.Count(0)
	for !w.done() && (maxSteps <= 0 || w.Steps < maxSteps) {
		if err := w.Step(); err != nil {
			return err
		}
		w.Count(len(w.layers) - 1)
	}
	return nil
}

// result renders the walk as a ReachResult over the canonical space.
func (w *Walk) result() *ReachResult {
	res := &ReachResult{
		StateSpace:     w.canon,
		Frontiers:      make([]*cube.Cover, len(w.layers)),
		FrontierCounts: make([]*big.Int, len(w.layers)),
		Fixpoint:       w.Fixpoint,
		Steps:          w.Steps,
		Stats:          w.stats,
		BDDNodes:       w.bddNodes,
		Aborted:        w.Aborted,
		AbortReason:    w.AbortReason,
	}
	for k := range w.layers {
		res.Frontiers[k] = w.canonical(w.Frontier(k))
		res.FrontierCounts[k] = w.Count(k)
	}
	res.All = w.canonical(w.man.ISOP(w.visited, w.space))
	res.AllCount = w.man.SatCount(w.visited)
	return res
}

// freshSource computes each layer with a fresh compute (or image),
// which hands the layer's state set straight to the walk's manager.
type freshSource struct {
	c    *circuit.Circuit
	opts Options
	step func(*circuit.Circuit, *cube.Cover, Options, *bdd.Manager) (*Result, bdd.Ref, error)
	man  *bdd.Manager
}

func (s *freshSource) layer(frontier *cube.Cover, reg *stats.Registry) (layer, error) {
	opts := s.opts
	if reg != nil {
		opts.Stats = reg
	}
	r, set, err := s.step(s.c, frontier, opts, s.man)
	if err != nil {
		return layer{}, err
	}
	return layer{set, r.Stats, r.BDDNodes, r.Aborted, r.AbortReason}, nil
}

func (s *freshSource) close() {}

// sessionSource computes each layer on one persistent incr session.
type sessionSource struct {
	sess *incr.Session
}

func (s *sessionSource) layer(frontier *cube.Cover, reg *stats.Registry) (layer, error) {
	start := time.Now()
	st, err := s.sess.Step(frontier)
	if err != nil {
		return layer{}, err
	}
	if reg != nil {
		RecordStats(reg, &Result{
			Stats:       st.Stats,
			BDDNodes:    st.Stats.BDDNodes,
			Engine:      EngineSuccessDriven,
			Aborted:     st.Aborted,
			AbortReason: st.Reason,
		}, time.Since(start))
	}
	return layer{st.Set, st.Stats, st.Stats.BDDNodes, st.Aborted, st.Reason}, nil
}

func (s *sessionSource) close() { s.sess.Close() }

// accumulate folds one run's stats into a multi-run total: counters
// sum, kernel gauges merge, and BDDNodes keeps the peak.
func accumulate(dst *allsat.Stats, s allsat.Stats) {
	dst.Add(s)
	dst.Kernel.Merge(s.Kernel)
	if s.BDDNodes > dst.BDDNodes {
		dst.BDDNodes = s.BDDNodes
	}
}
