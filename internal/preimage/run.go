package preimage

import (
	"fmt"
	"math/big"

	"allsatpre/internal/allsat"
	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
	rt "allsatpre/internal/runtime"
	"allsatpre/internal/simplify"
	"allsatpre/internal/trans"
)

// satRun is one projected all-solutions run, the paper's
// Pre(N)(s) = ∃x. T(s,x,s′) ∧ N(s′) and its variants: the models of f
// projected onto proj, read back as states. Compute projects onto
// projectionOrder's variables (the latches alone for the blocking,
// lifting and disjoint engines without WithInputs, (state, input)
// otherwise), Image onto the next-state variables, the unrolled
// KStepPreimage onto the frame-0 state vector.
type satRun struct {
	f    *cnf.Formula
	proj *cube.Space
	// pos is the projection position of each latch. Latches whose
	// next-state functions share a gate (Image) repeat a position.
	pos []int
	// pairs, when non-nil, is Compute's instance: with
	// Options.WithInputs the run also reports Result.Pairs over its
	// (state ++ input) space.
	pairs *trans.Instance
}

// latchPositions maps each latch's projection variable to its position
// in proj.
func latchPositions(vars []lit.Var, proj *cube.Space) []int {
	pos := make([]int, len(vars))
	for i, v := range vars {
		pos[i] = proj.PosOf(v)
	}
	return pos
}

// solve polls the budget, simplifies f in place with the projection
// frozen (every caller passes an instance-local formula), polls again,
// runs the engine, streams each projection cube through one state
// projector and counts the state cover (DESIGN.md §7). A blocking,
// lifting or disjoint run over a state-only projection that reports no
// Pairs searches only the live space (liveSpace) and widens each cube
// back before projecting it. A pairwise disjoint state cover (blocking
// and disjoint engines over a state-only projection) is counted by the
// sum of its cube sizes, in engine order, any other after Reduce. When
// share is non-nil it also returns the state set in share, a manager
// ordered over the canonical state space. A success-driven run over the
// latches alone, one per latch, hands its merged BDD straight to share
// and builds no cover: its Result then carries no States and no Count
// (see compute). The caller records the stats.
func (r satRun) solve(stateSpace *cube.Space, opts Options, share *bdd.Manager) (*Result, bdd.Ref, error) {
	eng, streams := opts.Engine.CubeEngine()
	if !streams && opts.Engine != EngineSuccessDriven {
		return nil, bdd.False, fmt.Errorf("preimage: unknown engine %v", opts.Engine)
	}
	out := &Result{StateSpace: stateSpace, Engine: opts.Engine}
	p := newStateProjector(r.pos, stateSpace)
	set := bdd.False
	var count *big.Int
	var raw []cube.Cube // projection cubes, kept for Pairs and parallel runs
	withPairs := opts.WithInputs && r.pairs != nil
	disjoint := false // the state cover is pairwise disjoint
	setOnly := false  // the run produced share's set and no cover
	var sstats simplify.Stats

	// An already-expired deadline or cancelled context aborts before any
	// preprocessing: simplify can solve a small instance outright, in
	// zero decisions, and such a run would look complete. The deadline
	// can also pass during preprocessing, hence the second poll.
	reason := opts.Budget.Start().Now()
	if reason == budget.None {
		if opts.Simplify.Enabled(true) {
			sstats = simplify.RunFrozen(r.f, r.proj.Vars()).Stats
		}
		reason = opts.Budget.Start().Now()
	}
	switch {
	case reason != budget.None:
		out.AbortReason, count = reason, new(big.Int)
	case !streams:
		pr := runSuccessDriven(r.f, r.proj, opts)
		setOnly = share != nil && r.stateOnly() && !p.splits()
		if setOnly && opts.Budget.MaxCubes == 0 {
			out.Stats, out.AbortReason = pr.Stats, pr.Reason
		} else {
			// Extract applies the cube cap: it keeps the first ISOP
			// cubes and narrows the merged set to them.
			res := pr.Extract(r.proj, opts.Budget.MaxCubes)
			out.Stats, out.AbortReason = res.Stats, res.Reason
			if !setOnly {
				for _, cb := range res.Cover.Cubes() {
					p.add(cb)
				}
				raw = res.Cover.Cubes()
			}
		}
		stateSet := pr.Set
		if !setOnly {
			// The merged BDD gives the count, and the state set, without
			// a cover round-trip: ∃(non-state)·set counted over the state
			// variables equals the minterm count of the projected cover.
			stateSet = pr.Manager.ExistsVars(pr.Set, r.nonStateVars())
			count = pr.Manager.SatCountIn(stateSet, r.stateVars())
		}
		if share != nil && !p.splits() {
			// Projection and latch order agree, so the renamed import
			// stays on the fast structural path.
			sub := make(map[lit.Var]lit.Var, len(r.pos))
			for i, pos := range r.pos {
				sub[r.proj.Vars()[pos]] = lit.Var(i)
			}
			set = share.Import(pr.Manager.Export(stateSet).Rename(sub))
		}
		pr.Release() // the set is exported; the manager goes back warm
	default:
		// A state-only run that reports no Pairs searches only the
		// projection variables some clause still mentions (the live
		// space); widen puts X back at the others.
		space, widen := r.proj, func(cb cube.Cube) cube.Cube { return cb }
		if r.stateOnly() && !withPairs {
			space, widen = r.liveSpace()
		}
		as := allsatOptions(opts)
		it := allsat.NewEngineIterator(r.f, space, as, eng)
		// A sequential stream is projected as it arrives, in engine
		// order. A parallel one arrives in scheduling order: it is
		// collected and put back into subcube order first, so a fixed
		// worker count gives one cover.
		parallel := as.Workers > 1
		for {
			cb, ok := it.Next()
			if !ok {
				break
			}
			if !parallel {
				p.add(widen(cb))
			}
			if parallel || withPairs {
				raw = append(raw, cb)
			}
		}
		out.AbortReason, out.Stats = it.Reason(), it.Stats()
		it.Close()
		if parallel {
			allsat.SortBySubcube(raw, space, as.Workers)
			for _, cb := range raw {
				p.add(widen(cb))
			}
		}
		// Free positions are counted on the widened cubes: each carries
		// an X at every dropped position.
		out.Stats.LiftedFree += uint64(r.proj.Size()-space.Size()) * out.Stats.Cubes
		// Blocking and disjoint cubes are pairwise disjoint, and over a
		// state-only projection so are their projections: the sum of
		// their sizes counts them, and Reduce would find nothing to
		// remove.
		disjoint = eng != allsat.Lifting && r.stateOnly()
	}
	out.Aborted = out.AbortReason != budget.None
	out.Stats.Simplify = sstats
	out.BDDNodes = out.Stats.BDDNodes
	if setOnly {
		return out, set, nil
	}
	if disjoint {
		count = p.states.DisjointCount()
	} else {
		p.states.Reduce()
	}
	out.States = p.states
	if count == nil {
		count = countStates(out.States, opts.Runtime)
	}
	out.Count = count
	if withPairs {
		out.Pairs = pairCover(r.pairs, r.proj, raw)
	}
	if share != nil && set == bdd.False {
		// No export (or an empty one, which the import reproduces).
		set = share.FromCover(out.States)
	}
	return out, set, nil
}

// liveSpace returns the projection variables some clause of r.f still
// mentions, in projection order, and the function that widens a cube
// over them back to the whole projection, with X at every dropped
// position. The dropped variables are don't-cares: the clauses are
// satisfied whatever their values, which is the paper's cube
// enlargement rule for decision variables left unassigned (DESIGN.md
// §2), applied before the search.
func (r satRun) liveSpace() (*cube.Space, func(cube.Cube) cube.Cube) {
	occurs := make([]bool, r.f.NumVars)
	for _, c := range r.f.Clauses {
		for _, l := range c {
			occurs[l.Var()] = true
		}
	}
	var vars []lit.Var
	var at []int // the projection position of each live variable
	for pos, v := range r.proj.Vars() {
		if int(v) < len(occurs) && occurs[v] {
			vars = append(vars, v)
			at = append(at, pos)
		}
	}
	return cube.NewSpace(vars), func(cb cube.Cube) cube.Cube {
		w := r.proj.FullCube()
		for i, q := range at {
			w[q] = cb[i]
		}
		return w
	}
}

// stateVars returns the distinct projection variables latches sit on.
func (r satRun) stateVars() []lit.Var {
	seen := make(map[int]bool, len(r.pos))
	var vars []lit.Var
	for _, pos := range r.pos {
		if !seen[pos] {
			seen[pos] = true
			vars = append(vars, r.proj.Vars()[pos])
		}
	}
	return vars
}

// nonStateVars returns the projection variables no latch sits on
// (Compute's inputs).
func (r satRun) nonStateVars() []lit.Var {
	isState := make([]bool, r.proj.Size())
	for _, pos := range r.pos {
		isState[pos] = true
	}
	var vars []lit.Var
	for pos, st := range isState {
		if !st {
			vars = append(vars, r.proj.Vars()[pos])
		}
	}
	return vars
}

// stateOnly reports whether every projection variable is a latch's.
func (r satRun) stateOnly() bool { return len(r.nonStateVars()) == 0 }

// pairCover re-expresses projection cubes over Compute's
// (state ++ input) order.
func pairCover(inst *trans.Instance, proj *cube.Space, raw []cube.Cube) *cube.Cover {
	pairSpace := pairSpace(inst)
	pairs := cube.NewCover(pairSpace)
	fullVars := inst.FullSpace.Vars()
	for _, cb := range raw {
		pc := pairSpace.FullCube()
		for i, v := range fullVars {
			pc[i] = cb[proj.PosOf(v)]
		}
		pairs.Add(pc)
	}
	return pairs
}

// stateProjector folds projection-space cubes into a state cover as they
// arrive: each cube is cut down to the latch positions, and a projection
// equal to the previous one is skipped. The engines decide states
// before inputs, so the many input-level cubes of one state cube arrive
// back to back and the skip drops them before Reduce sees them; Reduce
// drops whatever duplicates remain, so the reduced cover is the same
// either way.
//
// Latches that share a next-state gate share a projection position. If
// that position is free in a cube, the latch bits are "free but equal",
// which a state cube cannot express, so the cube is split on the
// position's two values first. Shared positions are split in latch
// order, so the produced cube order is deterministic.
type stateProjector struct {
	pos    []int // projection-space position of each latch
	shared []int // positions repeated in pos, in first-latch order
	states *cube.Cover
	last   cube.Cube
}

func newStateProjector(pos []int, stateSpace *cube.Space) *stateProjector {
	p := &stateProjector{pos: pos, states: cube.NewCover(stateSpace)}
	uses := map[int]int{}
	for _, q := range pos {
		uses[q]++
	}
	for _, q := range pos {
		if uses[q] > 1 {
			p.shared = append(p.shared, q)
			uses[q] = 0 // listed once
		}
	}
	return p
}

// splits reports whether some latches share a projection position.
func (p *stateProjector) splits() bool { return len(p.shared) > 0 }

func (p *stateProjector) add(cb cube.Cube) {
	for _, q := range p.shared {
		if cb[q] == lit.Unknown {
			for _, val := range []lit.Tern{lit.False, lit.True} {
				split := cb.Clone()
				split[q] = val
				p.add(split)
			}
			return
		}
	}
	if p.last != nil && p.repeats(cb) {
		return
	}
	sc := p.states.Space().FullCube()
	for i, pos := range p.pos {
		sc[i] = cb[pos]
	}
	p.states.Add(sc)
	p.last = sc
}

// repeats reports whether cb projects onto the last added state cube.
func (p *stateProjector) repeats(cb cube.Cube) bool {
	for i, pos := range p.pos {
		if p.last[i] != cb[pos] {
			return false
		}
	}
	return true
}

func pairSpace(inst *trans.Instance) *cube.Space {
	n := inst.FullSpace.Size()
	vars := make([]lit.Var, n)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		vars[i] = lit.Var(i)
		names[i] = inst.FullSpace.Name(i)
	}
	return cube.NewNamedSpace(vars, names)
}

// countStates counts the minterms of a state cover exactly via a BDD,
// borrowing the counting manager from the runtime pool when one is
// available (r may be nil).
func countStates(cv *cube.Cover, r *rt.Runtime) *big.Int {
	m := r.P().AcquireManager(cv.Space().Vars(), 0)
	n := m.SatCount(m.FromCover(cv))
	r.P().ReleaseManager(m)
	return n
}
