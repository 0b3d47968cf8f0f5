package allsat

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	"allsatpre/internal/partition"
	rt "allsatpre/internal/runtime"
	"allsatpre/internal/simplify"
)

// restrictFormula clones the formula and pins a guiding-path subcube
// with unit clauses. Each parallel worker enumerates such a restricted
// clone with its own solver; the units also pin the subcube prefix
// against lifting (a unit clause has exactly one satisfying literal, so
// the lifter can never free its variable), which keeps the per-subcube
// covers disjoint even for the lifting engine.
func restrictFormula(f *cnf.Formula, space *cube.Space, s partition.Subcube) *cnf.Formula {
	rf := f.Clone()
	for _, l := range s.Assumptions(space, nil) {
		rf.AddClause(cnf.Clause{l})
	}
	return rf
}

// splitDepth is the guiding-path prefix depth of a parallel run: two
// subcubes per worker, so uneven subcube costs can balance.
func splitDepth(space *cube.Space, workers int) int {
	return partition.PrefixDepth(space, workers, 2)
}

// SortBySubcube stably reorders cubes streamed by a parallel iterator
// with the given worker count into subcube order: the order in which
// concatenating the per-subcube covers in split order would list them.
// Every cube pins its subcube's prefix positions (the restricting unit
// clauses survive lifting and shrinking), and one job emits each
// subcube's cubes in its own order, so the result is deterministic for a
// fixed worker count. A no-op for workers <= 1.
func SortBySubcube(cubes []cube.Cube, space *cube.Space, workers int) {
	k := splitDepth(space, workers)
	if k == 0 {
		return
	}
	path := func(c cube.Cube) uint64 {
		var p uint64
		for i := 0; i < k; i++ {
			if c[i] == lit.True {
				p |= 1 << uint(i)
			}
		}
		return p
	}
	slices.SortStableFunc(cubes, func(a, b cube.Cube) int { return cmp.Compare(path(a), path(b)) })
}

// ParallelIterator streams solution cubes from runtime.Group jobs, each
// enumerating one guiding-path subcube on its own solver. The arrival
// order is scheduling-dependent (unlike the sequential Iterator), but
// the multiset of cubes drains the same disjoint subcube covers, and
// SortBySubcube puts a collected stream back into split order.
//
// Jobs may run on shared executors, which must never block on a slow
// consumer: cubes accumulate in buf under mu and Next waits on cond. The
// lost backpressure is bounded by the request's cube/budget fences (the
// collect-then-merge paths buffer the whole cover anyway). Once the
// consumer's context is cancelled, Next returns no more cubes, so a
// cancelled stream ends promptly however much was buffered.
type ParallelIterator struct {
	g      *rt.Group
	parent context.Context // the budget's context; nil when it has none

	mu      sync.Mutex
	cond    *sync.Cond
	stats   Stats
	buf     []cube.Cube
	bufHead int
	running int  // subcube jobs not yet finished
	stopped bool // consumer called Stop
}

// NewParallelIterator runs the blocking (or, with lift, the lifting)
// engine on opts.Workers workers (minimum 1) and returns the streaming
// iterator over its cubes. An Options.Budget bounds the whole stream:
// the jobs share its MaxCubes, and the first limit to trip ends the
// stream with Reason reporting it. Callers must either drain it or call
// Stop to release the workers.
func NewParallelIterator(f *cnf.Formula, space *cube.Space, opts Options, lift bool) *ParallelIterator {
	eng := Blocking
	if lift {
		eng = Lifting
	}
	return newParallelIterator(f, space, opts, eng)
}

func newParallelIterator(f *cnf.Formula, space *cube.Space, opts Options, eng Engine) *ParallelIterator {
	var sstats simplify.Stats
	f, sstats = maybeSimplify(f, space, &opts)
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	bud := opts.Budget.Materialize()
	subs := partition.Split(space, splitDepth(space, workers))
	if workers > len(subs) {
		workers = len(subs)
	}
	g := rt.NewGroup(opts.Runtime, bud.Ctx, workers)
	p := &ParallelIterator{g: g, parent: bud.Ctx, running: len(subs)}
	p.cond = sync.NewCond(&p.mu)
	p.stats.Simplify = sstats
	slots := &cubeSlots{max: bud.MaxCubes}
	wopts := jobOptions(opts, bud, g)
	jobs := make([]func(), len(subs))
	for i := range subs {
		jobs[i] = func() {
			var st Stats
			if g.Ctx().Err() == nil {
				it := NewEngineIterator(restrictFormula(f, space, subs[i]), space, wopts, eng)
				dropped := slots.drain(it, g, p.push)
				st = it.Stats()
				if dropped != nil {
					st.uncount(dropped, eng)
				}
				it.Close()
			}
			p.mu.Lock()
			addStats(&p.stats, st)
			p.running--
			p.mu.Unlock()
			p.cond.Broadcast()
		}
	}
	// One batch: subcubes are dispatched in split order.
	g.Go(jobs...)
	return p
}

// jobOptions derives the per-subcube iterator options of a parallel run:
// sequential, under the group context — so the first abort, recorded in
// the group, cancels the siblings — and without a cube cap of their own,
// since the run's cap is shared through cubeSlots.
func jobOptions(opts Options, bud budget.Budget, g *rt.Group) Options {
	opts.Workers = 0
	opts.Budget = bud
	opts.Budget.Ctx = g.Ctx()
	opts.Budget.MaxCubes = 0
	return opts
}

// cubeSlots is the cube cap of one parallel run, shared by its jobs.
type cubeSlots struct {
	max uint64 // Budget.MaxCubes; 0 = unlimited
	n   atomic.Uint64
}

// drain runs one job's subcube iterator to its end, handing each cube to
// keep, and records the first stop reason in the group. A job claims a
// cap slot before keeping its cube: the counter only ever holds kept
// cubes plus transient over-claims that are immediately returned, so the
// run keeps exactly min(max, |full cover|) cubes — checking before
// claiming would let two jobs pass at max-1 and overshoot by up to
// workers-1. Only a cube that finds no slot records budget.Cubes, so a
// run whose cap equals its exact cube count ends complete. drain returns
// that cube, which the iterator emitted and counted but the run drops.
func (cs *cubeSlots) drain(it CubeIterator, g *rt.Group, keep func(cube.Cube)) cube.Cube {
	for {
		c, ok := it.Next()
		if !ok {
			g.Abort(it.Reason())
			return nil
		}
		if cs.max > 0 && cs.n.Add(1) > cs.max {
			cs.n.Add(^uint64(0)) // unclaim
			g.Abort(budget.Cubes)
			return c
		}
		keep(c)
	}
}

// uncount takes back the per-cube counters of a cube the engine's
// iterator emitted but the run dropped, so the counters describe the
// kept cubes as a sequential run's do; the search counters keep the
// work spent finding it.
func (st *Stats) uncount(c cube.Cube, eng Engine) {
	st.Solutions--
	st.Cubes--
	if eng != Blocking {
		st.LiftedFree -= uint64(c.FreeVars())
	}
	if eng != Disjoint {
		st.BlockingClauses--
		st.BlockingLits -= uint64(len(c) - c.FreeVars())
	}
}

// addStats sums one subcube's search counters into dst, and its learnt
// and arena gauges too: the subcube jobs run concurrently.
func addStats(dst *Stats, s Stats) {
	dst.Add(s)
	dst.PeakLearnts += s.PeakLearnts
	dst.PeakLearntBytes += s.PeakLearntBytes
	dst.ArenaBytes += s.ArenaBytes
	dst.LearntsCore += s.LearntsCore
	dst.LearntsTier2 += s.LearntsTier2
	dst.LearntsLocal += s.LearntsLocal
}

// push appends a cube to the buffer and wakes a consumer.
func (p *ParallelIterator) push(c cube.Cube) {
	p.mu.Lock()
	p.buf = append(p.buf, c)
	p.mu.Unlock()
	p.cond.Signal()
}

// Next returns the next solution cube, or ok=false once every job has
// drained its subcube (or Stop, a budget, or the consumer's context cut
// them short).
func (p *ParallelIterator) Next() (cube.Cube, bool) {
	p.mu.Lock()
	for p.bufHead >= len(p.buf) && p.running > 0 && !p.stopped {
		p.cond.Wait()
	}
	if p.bufHead < len(p.buf) && !p.stopped && (p.parent == nil || p.parent.Err() == nil) {
		c := p.buf[p.bufHead]
		p.buf[p.bufHead] = nil
		p.bufHead++
		p.mu.Unlock()
		return c, true
	}
	p.mu.Unlock()
	p.g.Wait()
	return nil, false
}

// Stop cancels the remaining jobs and waits for them to wind down. An
// unfinished stream then reports budget.Cancelled, so a stopped run never
// looks complete. Safe to call more than once and after exhaustion.
func (p *ParallelIterator) Stop() {
	p.mu.Lock()
	if p.running > 0 || p.bufHead < len(p.buf) {
		p.g.Abort(budget.Cancelled)
	}
	p.stopped = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.g.Wait()
}

// Close ends the iteration; the jobs release their per-subcube
// iterators — and pooled solvers — before it returns. It makes
// ParallelIterator satisfy the same closeable-iterator surface as the
// sequential iterators.
func (p *ParallelIterator) Close() { p.Stop() }

// Reason reports why the iteration stopped early (budget.None when it
// ran to completion or is still running).
func (p *ParallelIterator) Reason() budget.Reason { return p.g.Reason() }

// Stats returns the counters folded in from finished subcube iterators.
func (p *ParallelIterator) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
