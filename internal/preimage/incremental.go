package preimage

// Incremental reachability paths: the iterated entry points (Reach,
// ForwardReach, KStepPreimage, CheckReachable's trace extraction) backed
// by one persistent incr.Session instead of a fresh instance per step.
// The circuit is encoded once, learned clauses and the success-driven
// memo survive retargeting, and frontiers never round-trip through a
// second BDD manager. The produced frontiers, counts, and verdicts are
// bit-identical to the fresh path (see DESIGN.md §10); only the resource
// accounting differs — budgets are session-global rather than per-step.

import (
	"fmt"
	"math/big"
	"time"

	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cube"
	"allsatpre/internal/incr"
	"allsatpre/internal/lit"
	"allsatpre/internal/sat"
	"allsatpre/internal/simplify"
	"allsatpre/internal/trans"
)

// useIncremental reports whether the incremental session path applies:
// it implements only the success-driven engine, and Restrict (a per-step
// unit constraint) does not compose with a persistent solver.
func useIncremental(opts Options) bool {
	return opts.Incremental && opts.Engine == EngineSuccessDriven && opts.Restrict == nil
}

// incrOptions translates preimage options into session options.
func incrOptions(opts Options) incr.Options {
	workers := opts.Parallel
	if workers < 1 {
		workers = 1
	}
	return incr.Options{
		Workers:    workers,
		Core:       coreOptions(opts),
		Budget:     opts.Budget,
		InputFirst: opts.InputFirstOrder,
		Interleave: opts.Interleave,
		// Sessions default off regardless of the one-shot default: only an
		// explicit On opts in (Auto means "context default", and the
		// incremental context's default is no preprocessing).
		Simplify: opts.Simplify == simplify.On,
		Stats:    opts.Stats,
	}
}

// reachIncremental is Reach over one backward session: the per-step
// loop is the same as the fresh path's, but the visited set lives in the
// session manager (over CNF state variable ids) and each layer's state
// set comes from the session via ∃-quantification instead of a cover
// re-import. Frontier covers are extracted over the instance state space
// — positionally identical to the canonical-space covers, since both
// managers keep the latches in declaration order — and canonicalized for
// the result.
func reachIncremental(c *circuit.Circuit, target *cube.Cover, maxSteps int, opts Options) (*ReachResult, error) {
	runStats := opts.Stats
	stateSpace := StateSpace(c)
	sess, err := incr.NewBackward(c, incrOptions(opts))
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	man := sess.Manager()
	cnfSpace := sess.StateSpace()
	stateVars := sess.StateVars()

	targetC := canonicalize(stateSpace, target)
	visited := man.FromCover(sess.Instance().RetargetCover(targetC))
	res := &ReachResult{
		StateSpace:     stateSpace,
		Frontiers:      []*cube.Cover{targetC},
		FrontierCounts: []*big.Int{man.SatCountIn(visited, stateVars)},
	}
	frontier := targetC

	for step := 0; maxSteps <= 0 || step < maxSteps; step++ {
		if frontier.Len() == 0 {
			res.Fixpoint = true
			break
		}
		start := time.Now()
		st, err := sess.Step(frontier)
		if err != nil {
			return nil, err
		}
		res.Steps++
		accumulate(&res.Stats, st.Stats)
		if st.Stats.BDDNodes > res.BDDNodes {
			res.BDDNodes = st.Stats.BDDNodes
		}
		if st.Aborted {
			res.Aborted = true
			if res.AbortReason == budget.None {
				res.AbortReason = st.Reason
			}
		}
		if runStats != nil {
			recordStats(runStats.Phase(fmt.Sprintf("step%02d", step)), &Result{
				Stats:       st.Stats,
				BDDNodes:    st.Stats.BDDNodes,
				Engine:      opts.Engine,
				Aborted:     st.Aborted,
				AbortReason: st.Reason,
			}, time.Since(start))
		}
		preSet := sess.StateSet(st.Set)
		newSet := man.Diff(preSet, visited)
		if newSet == bdd.False {
			if !st.Aborted {
				res.Fixpoint = true
			}
			break
		}
		frontier = man.ISOP(newSet, cnfSpace)
		visited = man.Or(visited, newSet)
		res.Frontiers = append(res.Frontiers, canonicalize(stateSpace, frontier))
		res.FrontierCounts = append(res.FrontierCounts, man.SatCountIn(newSet, stateVars))
		if st.Aborted {
			break
		}
	}
	res.All = canonicalize(stateSpace, man.ISOP(visited, cnfSpace))
	res.AllCount = man.SatCountIn(visited, stateVars)
	return res, nil
}

// forwardReachIncremental is ForwardReach over one forward session. The
// session enumerates over the deduplicated next-state variables; each
// image cover is expanded back onto the full latch order (shared
// next-state gates) and merged into a canonical-space visited set, the
// one cover round-trip the forward direction keeps.
func forwardReachIncremental(c *circuit.Circuit, init *cube.Cover, maxSteps int, opts Options) (*ReachResult, error) {
	runStats := opts.Stats
	stateSpace := StateSpace(c)
	sess, err := incr.NewForward(c, incrOptions(opts))
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	man := bdd.NewOrdered(stateSpace.Vars())

	initC := canonicalize(stateSpace, init)
	visited := man.FromCover(initC)
	res := &ReachResult{
		StateSpace:     stateSpace,
		Frontiers:      []*cube.Cover{initC},
		FrontierCounts: []*big.Int{man.SatCount(visited)},
	}
	frontier := initC
	for step := 0; maxSteps <= 0 || step < maxSteps; step++ {
		if frontier.Len() == 0 {
			res.Fixpoint = true
			break
		}
		start := time.Now()
		st, err := sess.Step(frontier)
		if err != nil {
			return nil, err
		}
		res.Steps++
		accumulate(&res.Stats, st.Stats)
		if st.Stats.BDDNodes > res.BDDNodes {
			res.BDDNodes = st.Stats.BDDNodes
		}
		if st.Aborted {
			res.Aborted = true
			if res.AbortReason == budget.None {
				res.AbortReason = st.Reason
			}
		}
		if runStats != nil {
			recordStats(runStats.Phase(fmt.Sprintf("step%02d", step)), &Result{
				Stats:       st.Stats,
				BDDNodes:    st.Stats.BDDNodes,
				Engine:      opts.Engine,
				Aborted:     st.Aborted,
				AbortReason: st.Reason,
			}, time.Since(start))
		}
		imgCover := ExpandNextCover(sess.Instance().NextVars, sess.ProjSpace(),
			sess.Manager().ISOP(st.Set, sess.ProjSpace()), stateSpace)
		imgCover.Reduce()
		imgSet := man.FromCover(imgCover)
		newSet := man.Diff(imgSet, visited)
		if newSet == bdd.False {
			if !st.Aborted {
				res.Fixpoint = true
			}
			break
		}
		visited = man.Or(visited, newSet)
		frontier = man.ISOP(newSet, stateSpace)
		res.Frontiers = append(res.Frontiers, frontier)
		res.FrontierCounts = append(res.FrontierCounts, man.SatCount(newSet))
		if st.Aborted {
			break
		}
	}
	res.All = man.ISOP(visited, stateSpace)
	res.AllCount = man.SatCount(visited)
	return res, nil
}

// kstepIncremental is KStepPreimage over one backward session: a BFS
// union of the first k+1 backward layers. The union equals the unrolled
// formula's projection, and ISOP over the same latch order makes the
// returned cover bit-identical to the fresh path's on unbudgeted runs
// (abort timing necessarily differs between one unrolled enumeration and
// k separate layers).
func kstepIncremental(c *circuit.Circuit, target *cube.Cover, k int, opts Options) (*Result, error) {
	stateSpace := StateSpace(c)
	sess, err := incr.NewBackward(c, incrOptions(opts))
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	man := sess.Manager()
	cnfSpace := sess.StateSpace()
	stateVars := sess.StateVars()

	targetC := canonicalize(stateSpace, target)
	visited := man.FromCover(sess.Instance().RetargetCover(targetC))
	out := &Result{StateSpace: stateSpace, Engine: opts.Engine}
	frontier := targetC
	for step := 0; step < k; step++ {
		if frontier.Len() == 0 {
			break
		}
		st, err := sess.Step(frontier)
		if err != nil {
			return nil, err
		}
		accumulate(&out.Stats, st.Stats)
		if st.Stats.BDDNodes > out.BDDNodes {
			out.BDDNodes = st.Stats.BDDNodes
		}
		if st.Aborted {
			out.Aborted = true
			if out.AbortReason == budget.None {
				out.AbortReason = st.Reason
			}
		}
		newSet := man.Diff(sess.StateSet(st.Set), visited)
		if newSet == bdd.False {
			break
		}
		visited = man.Or(visited, newSet)
		if st.Aborted {
			// Merge the sound partial layer, then stop deepening.
			break
		}
		frontier = man.ISOP(newSet, cnfSpace)
	}
	states := canonicalize(stateSpace, man.ISOP(visited, cnfSpace))
	states.Reduce()
	out.States = states
	out.Count = man.SatCountIn(visited, stateVars)
	return out, nil
}

// traceStepper replays a counterexample trace with one persistent
// transition instance and SAT solver: each layer's target is gated on a
// fresh activation literal (trans.Retarget) and retired with a unit,
// instead of rebuilding the CNF and solver per layer. Learned clauses
// mentioning a retired activation variable are permanently satisfied by
// its unit, so the plain CDCL solver needs no group GC.
type traceStepper struct {
	inst   *trans.Instance
	s      *sat.Solver
	act    lit.Lit
	hasAct bool
}

func newTraceStepper(c *circuit.Circuit) (*traceStepper, error) {
	inst, err := trans.NewBaseInstance(c)
	if err != nil {
		return nil, err
	}
	return &traceStepper{inst: inst, s: sat.FromFormula(inst.F, sat.DefaultOptions())}, nil
}

// step finds one input vector moving the concrete state cur into the
// target set — the incremental counterpart of stepInto.
func (ts *traceStepper) step(cur []bool, target *cube.Cover) (inputs, next []bool, err error) {
	if ts.hasAct {
		ts.s.AddClause(ts.act.Not())
	}
	st, err := ts.inst.Retarget(target, ts.s.NewVar)
	if err != nil {
		return nil, nil, err
	}
	ts.act, ts.hasAct = st.Act, true
	ok := true
	for _, cl := range st.Clauses {
		ok = ts.s.AddClause(cl...) && ok
	}
	if !ok {
		return nil, nil, fmt.Errorf("no transition from %v into the layer", cur)
	}
	assume := make([]lit.Lit, 0, len(ts.inst.StateVars)+1)
	for i, v := range ts.inst.StateVars {
		assume = append(assume, lit.New(v, !cur[i]))
	}
	assume = append(assume, st.Act)
	switch ts.s.Solve(assume...) {
	case sat.Sat:
	case sat.Unsat:
		return nil, nil, fmt.Errorf("no transition from %v into the layer", cur)
	default:
		return nil, nil, fmt.Errorf("budget exhausted during trace extraction")
	}
	m := ts.s.Model()
	inputs = make([]bool, len(ts.inst.InputVars))
	for i, v := range ts.inst.InputVars {
		inputs[i] = m[v]
	}
	next = make([]bool, len(ts.inst.NextVars))
	for i, v := range ts.inst.NextVars {
		next[i] = m[v]
	}
	return inputs, next, nil
}
