package allsat

import (
	"context"
	"sync"
	"sync/atomic"

	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	"allsatpre/internal/partition"
	"allsatpre/internal/simplify"
)

// Parallel returns a copy of the options with the worker count set —
// the fluent spelling of Options.Workers for call sites that start from
// a literal or a default.
func (o Options) Parallel(workers int) Options {
	o.Workers = workers
	return o
}

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

// enumerateParallel fans an engine's enumeration loop out over
// guiding-path subcubes: the projection space is split into disjoint prefix subcubes,
// workers drain them from a shared feed (each subcube enumerated by a
// fresh solver on a restricted clone), and the per-subcube covers are
// concatenated in subcube order — so the merged cover is deterministic
// for a fixed split depth, and as a solution set it equals the
// sequential enumeration for every worker count.
func enumerateParallel(f *cnf.Formula, space *cube.Space, opts Options, eng engineKind) *Result {
	bud := opts.Budget.Materialize()
	workers := opts.Workers
	k := partition.PrefixDepth(space, workers, 2)
	subs := partition.Split(space, k)
	if len(subs) <= 1 {
		// f is already simplified by the enumerateEngine entry point
		// (opts.Simplify is Off here), so skip straight to the loop.
		seq := opts
		seq.Workers = 0
		return enumerateSimplified(f, space, seq, eng)
	}
	if workers > len(subs) {
		workers = len(subs)
	}

	// The cube cap is global: workers claim slots from a shared counter.
	// The first abort records its reason and cancels the siblings via a
	// shared context threaded into every worker's solver budget.
	maxCubes := bud.MergeCubes(opts.MaxCubes)
	var cubeCount atomic.Uint64
	base := context.Background()
	if bud.Ctx != nil {
		base = bud.Ctx
	}
	ctx, cancel := context.WithCancel(base)
	defer cancel()
	var abortReason atomic.Int32
	record := func(r budget.Reason) {
		if r != budget.None && abortReason.CompareAndSwap(0, int32(r)) {
			cancel()
		}
	}
	wopts := opts
	wopts.Workers = 0
	wopts.MaxCubes = 0
	wopts.Budget = bud
	wopts.Budget.Ctx = ctx
	wopts.Budget.MaxCubes = 0

	type subOut struct {
		cubes []cube.Cube
		stats Stats
	}
	outs := make([]subOut, len(subs))
	runSub := func(i int) {
		it := newKindIterator(restrictFormula(f, space, subs[i]), space, wopts, eng)
		var cubes []cube.Cube
		for {
			if maxCubes > 0 && cubeCount.Load() >= maxCubes {
				record(budget.Cubes)
				break
			}
			c, ok := it.Next()
			if !ok {
				record(it.Reason())
				break
			}
			// Claim the slot before keeping the cube: the shared
			// counter only ever holds kept cubes plus transient
			// over-claims that are immediately returned, so the
			// merged cover respects the cap exactly — checking
			// Load() before Add() would let two workers pass at
			// maxCubes-1 and overshoot by up to workers-1.
			if maxCubes > 0 && cubeCount.Add(1) > maxCubes {
				cubeCount.Add(^uint64(0)) // unclaim
				record(budget.Cubes)
				break
			}
			cubes = append(cubes, c)
		}
		outs[i] = subOut{cubes: cubes, stats: it.Stats()}
		it.Close()
	}

	if sched := opts.Runtime.S(); sched != nil {
		// Scheduler mode: one job per subcube on the server-wide executor
		// pool, fair-shared against every other in-flight request. outs is
		// indexed by subcube, so the merged cover is byte-identical to the
		// goroutine mode regardless of dispatch order.
		var wg sync.WaitGroup
		wg.Add(len(subs))
		for i := range subs {
			sched.Submit(opts.Runtime.Tenant, func() {
				defer wg.Done()
				if ctx.Err() == nil {
					runSub(i)
				}
			})
		}
		wg.Wait()
	} else {
		feed := make(chan int)
		go func() {
			defer close(feed)
			for i := range subs {
				select {
				case feed <- i:
				case <-ctx.Done():
					return
				}
			}
		}()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range feed {
					runSub(i)
					if ctx.Err() != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
	}

	res := &Result{Space: space, Cover: cube.NewCover(space)}
	for _, o := range outs {
		for _, c := range o.cubes {
			res.Cover.Add(c)
		}
		s := o.stats
		res.Stats.Solutions += s.Solutions
		res.Stats.Cubes += s.Cubes
		res.Stats.BlockingClauses += s.BlockingClauses
		res.Stats.BlockingLits += s.BlockingLits
		res.Stats.LiftedFree += s.LiftedFree
		res.Stats.PeakLearnts += s.PeakLearnts
		res.Stats.PeakLearntBytes += s.PeakLearntBytes
		res.Stats.ArenaBytes += s.ArenaBytes
		res.Stats.LearntsCore += s.LearntsCore
		res.Stats.LearntsTier2 += s.LearntsTier2
		res.Stats.LearntsLocal += s.LearntsLocal
		res.Stats.Decisions += s.Decisions
		res.Stats.Propagations += s.Propagations
		res.Stats.Conflicts += s.Conflicts
	}
	countCover(res, eng, opts.Runtime.P())
	if r := budget.Reason(abortReason.Load()); r != budget.None {
		res.Aborted = true
		res.Reason = r
	}
	return res
}

// ParallelIterator streams solution cubes from a pool of workers, each
// enumerating one guiding-path subcube at a time on its own solver. The
// arrival order is scheduling-dependent (unlike the sequential Iterator),
// but the multiset of cubes drains the same disjoint subcube covers.
type ParallelIterator struct {
	ch     chan cube.Cube
	cancel context.CancelFunc
	reason atomic.Int32
	done   atomic.Bool

	mu    sync.Mutex
	stats Stats

	// Scheduler mode (runtime-backed): subcube jobs run on the shared
	// executors, which must never block on a slow consumer — cubes
	// accumulate in buf under mu and Next waits on cond instead of a
	// bounded channel. The lost backpressure is bounded by the request's
	// cube/budget fences (the collect-then-merge paths buffer the whole
	// cover anyway).
	sched   bool
	cond    *sync.Cond
	buf     []cube.Cube
	bufHead int
	closed  bool // every subcube job finished
	stopped bool // consumer called Stop
}

// NewParallelIterator starts opts.Workers workers (minimum 1) and
// returns the streaming iterator over the blocking (or, with lift, the
// lifting) engine. Callers must either drain it or call Stop to release
// the workers.
func NewParallelIterator(f *cnf.Formula, space *cube.Space, opts Options, lift bool) *ParallelIterator {
	eng := engBlocking
	if lift {
		eng = engLifting
	}
	return newParallelIterator(f, space, opts, eng)
}

// NewParallelDisjointIterator is NewParallelIterator for the disjoint
// engine. The per-subcube covers stay pairwise disjoint: every cube pins
// its subcube's unit prefix (level-0 literals are never shrunk away).
func NewParallelDisjointIterator(f *cnf.Formula, space *cube.Space, opts Options) *ParallelIterator {
	return newParallelIterator(f, space, opts, engDisjoint)
}

func newParallelIterator(f *cnf.Formula, space *cube.Space, opts Options, eng engineKind) *ParallelIterator {
	var sstats simplify.Stats
	f, sstats = maybeSimplify(f, space, &opts)
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	bud := opts.Budget.Materialize()
	base := context.Background()
	if bud.Ctx != nil {
		base = bud.Ctx
	}
	ctx, cancel := context.WithCancel(base)
	p := &ParallelIterator{
		ch:     make(chan cube.Cube, 4*workers),
		cancel: cancel,
	}
	p.stats.Simplify = sstats
	k := partition.PrefixDepth(space, workers, 2)
	subs := partition.Split(space, k)
	if workers > len(subs) {
		workers = len(subs)
	}
	wopts := opts
	wopts.Workers = 0
	wopts.Budget = bud
	wopts.Budget.Ctx = ctx

	if sched := opts.Runtime.S(); sched != nil {
		p.sched = true
		p.cond = sync.NewCond(&p.mu)
		var pending atomic.Int64
		pending.Store(int64(len(subs)))
		for i := range subs {
			sched.Submit(opts.Runtime.Tenant, func() {
				if ctx.Err() == nil {
					it := newKindIterator(restrictFormula(f, space, subs[i]), space, wopts, eng)
					for {
						c, ok := it.Next()
						if !ok {
							p.record(it.Reason())
							break
						}
						p.push(c)
					}
					p.fold(it.Stats())
					it.Close()
				}
				if pending.Add(-1) == 0 {
					p.mu.Lock()
					p.closed = true
					p.mu.Unlock()
					p.cond.Broadcast()
				}
			})
		}
		return p
	}

	feed := make(chan int)
	go func() {
		defer close(feed)
		for i := range subs {
			select {
			case feed <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				it := newKindIterator(restrictFormula(f, space, subs[i]), space, wopts, eng)
				for {
					c, ok := it.Next()
					if !ok {
						p.record(it.Reason())
						break
					}
					select {
					case p.ch <- c:
					case <-ctx.Done():
						// Cancelled while blocked on a full stream: record it, or
						// a consumer that drains the buffered cubes would read the
						// truncated enumeration as complete (Reason stays None when
						// a sibling's budget abort cancelled us first — the CAS in
						// record keeps the first reason).
						p.record(budget.Cancelled)
						p.fold(it.Stats())
						it.Close()
						return
					}
				}
				p.fold(it.Stats())
				it.Close()
				if ctx.Err() != nil {
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(p.ch)
	}()
	return p
}

// record stores the first abort reason and cancels the siblings: one
// tripped budget stops the whole pool promptly (matching
// enumerateParallel's first-abort-cancels-all semantics) instead of
// letting the remaining workers keep burning their own budgets.
func (p *ParallelIterator) record(r budget.Reason) {
	if r != budget.None && p.reason.CompareAndSwap(0, int32(r)) {
		p.cancel()
	}
}

func (p *ParallelIterator) fold(s Stats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Solutions += s.Solutions
	p.stats.Cubes += s.Cubes
	p.stats.BlockingClauses += s.BlockingClauses
	p.stats.BlockingLits += s.BlockingLits
	p.stats.LiftedFree += s.LiftedFree
	p.stats.PeakLearnts += s.PeakLearnts
	p.stats.PeakLearntBytes += s.PeakLearntBytes
	p.stats.ArenaBytes += s.ArenaBytes
	p.stats.LearntsCore += s.LearntsCore
	p.stats.LearntsTier2 += s.LearntsTier2
	p.stats.LearntsLocal += s.LearntsLocal
	p.stats.Decisions += s.Decisions
	p.stats.Propagations += s.Propagations
	p.stats.Conflicts += s.Conflicts
}

// push appends a cube to the scheduler-mode buffer and wakes a consumer.
func (p *ParallelIterator) push(c cube.Cube) {
	p.mu.Lock()
	p.buf = append(p.buf, c)
	p.mu.Unlock()
	p.cond.Signal()
}

// Next returns the next solution cube, or ok=false once every worker has
// drained its subcubes (or Stop/a budget cut them short).
func (p *ParallelIterator) Next() (cube.Cube, bool) {
	if !p.sched {
		c, ok := <-p.ch
		if !ok {
			p.done.Store(true)
		}
		return c, ok
	}
	p.mu.Lock()
	for p.bufHead >= len(p.buf) && !p.closed && !p.stopped {
		p.cond.Wait()
	}
	if p.bufHead < len(p.buf) && !p.stopped {
		c := p.buf[p.bufHead]
		p.buf[p.bufHead] = nil
		p.bufHead++
		p.mu.Unlock()
		return c, true
	}
	p.mu.Unlock()
	p.done.Store(true)
	return nil, false
}

// Stop cancels the workers and drains the stream. Safe to call more than
// once and after exhaustion.
func (p *ParallelIterator) Stop() {
	p.cancel()
	if p.sched {
		p.mu.Lock()
		p.stopped = true
		p.mu.Unlock()
		p.cond.Broadcast()
		p.done.Store(true)
		return
	}
	for range p.ch {
	}
	p.done.Store(true)
}

// Close ends the iteration; the workers (or scheduler jobs) release
// their per-subcube iterators — and pooled solvers — as they wind down.
// It makes ParallelIterator satisfy the same closeable-iterator surface
// as the sequential iterators.
func (p *ParallelIterator) Close() { p.Stop() }

// Exhausted reports whether the stream has ended. Safe to call
// concurrently with Next/Stop.
func (p *ParallelIterator) Exhausted() bool { return p.done.Load() }

// Reason reports why the iteration stopped early (budget.None when it
// ran to completion or is still running).
func (p *ParallelIterator) Reason() budget.Reason {
	return budget.Reason(p.reason.Load())
}

// Aborted reports whether a resource limit cut the iteration short.
func (p *ParallelIterator) Aborted() bool { return p.Reason() != budget.None }

// Stats returns the counters folded in from finished subcube iterators.
func (p *ParallelIterator) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
