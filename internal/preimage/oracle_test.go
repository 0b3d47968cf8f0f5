package preimage

// The differential oracle. The paper's answer is defined by the circuit,
// Pre(N)(s) = ∃x. T(s,x,s′) ∧ N(s′), so every run is checked against the
// circuit itself: once per (circuit, target) the oracle simulates every
// (state, input) pair and records the preimage states, the witness pairs
// and the image of the target, then re-reads every cube each run emits
// against that truth. One matrix of runs covers what the engines
// promise: the five engines at Parallel 1/2/4/8 with Simplify on and
// off, on three runtimes (fresh, warm on a shared pool and scheduler,
// warm right after an aborted run), over the latches alone or
// WithInputs, each unbudgeted and under a cube cap and a decision cap;
// plus Image for each engine at Parallel 1 and 4.
//
// Each run must be sound (every minterm of every States and Pairs cube
// is a true predecessor or witness), counted (Count is the size of
// States, aborted or not), and complete unless aborted, in which case it
// names the cap that was set. On top of the truth it pins the
// bit-identity contract: the success-driven cover is the same at every
// worker count and simplify mode; each cell's cover is the same on all
// three runtimes; a WithInputs run of a cube engine equals the
// enumerate-then-project reference cube for cube; and blocking and
// disjoint covers over the latches are pairwise disjoint.
//
// The tests at the end of the file split the determinism suite's matrix
// among them, each cell in one, and sweep the whole matrix on the
// brute-force corpora.

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"allsatpre/internal/allsat"
	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	"allsatpre/internal/gen"
	"allsatpre/internal/lit"
	rt "allsatpre/internal/runtime"
	"allsatpre/internal/sat"
	"allsatpre/internal/simplify"
	"allsatpre/internal/stats"
	"allsatpre/internal/trans"
)

// oracleMaxVars bounds latches + inputs of a circuit the oracle
// simulates exhaustively.
const oracleMaxVars = 20

// oraclePairLimit skips the unbudgeted WithInputs runs of the blocking,
// lifting and disjoint engines above this many witness pairs: they
// enumerate (state, input) cubes, blocking and lifting one solution per
// minterm, and would take minutes on the widest suite circuit. Their
// capped runs still run.
const oraclePairLimit = 4096

// oracleCap is a budget a matrix cell runs under, with the reason an
// abort under it must name.
type oracleCap struct {
	name   string
	b      budget.Budget
	reason budget.Reason
}

var oracleCaps = []oracleCap{
	{"none", budget.Budget{}, budget.None},
	{"max-cubes", budget.Budget{MaxCubes: 7}, budget.Cubes},
	{"max-decisions", budget.Budget{MaxDecisions: 40}, budget.Decisions},
}

// preAbort is the cap of the run that leaves aborted solvers and
// managers in the pool before a cell's last warm run.
func preAbort(eng Engine) oracleCap {
	if eng == EngineBDD {
		return oracleCap{"pre-abort", budget.Budget{MaxBDDNodes: 16}, budget.Nodes}
	}
	return oracleCap{"pre-abort", budget.Budget{MaxDecisions: 1}, budget.Decisions}
}

// truth is the exhaustive-simulation answer for one (circuit, target).
// The sets are indexed by minterm, bit k of an index being position k:
// pre over the latches, pairs over (state ++ input), image over the
// latches.
type truth struct {
	pre, pairs, image    []bool
	nPre, nPairs, nImage int
}

// simulate steps the circuit on every (state, input) pair, 64 at a time.
func simulate(tb testing.TB, c *circuit.Circuit, target *cube.Cover) *truth {
	tb.Helper()
	nL, nI := len(c.Latches), len(c.Inputs)
	if nL+nI > oracleMaxVars {
		tb.Fatalf("%s: %d latches + %d inputs exceed the oracle's %d", c.Name, nL, nI, oracleMaxVars)
	}
	sim, err := circuit.NewSimulator(c)
	if err != nil {
		tb.Fatal(err)
	}
	inTarget := make([]bool, 1<<nL)
	markCover(target, inTarget)
	tr := &truth{pre: make([]bool, 1<<nL), pairs: make([]bool, 1<<(nL+nI)), image: make([]bool, 1<<nL)}
	st, in := make([]uint64, nL), make([]uint64, nI)
	for base := 0; base < len(tr.pairs); base += 64 {
		n := min(64, len(tr.pairs)-base)
		clear(st)
		clear(in)
		for j := 0; j < n; j++ {
			p := base + j
			for k := range st {
				st[k] |= uint64(p>>k&1) << j
			}
			for k := range in {
				in[k] |= uint64(p>>(nL+k)&1) << j
			}
		}
		_, next := sim.Step64(st, in)
		for j := 0; j < n; j++ {
			p := base + j
			s, ns := p&(1<<nL-1), 0
			for k, w := range next {
				ns |= int(w>>j&1) << k
			}
			if inTarget[ns] {
				tr.pre[s], tr.pairs[p] = true, true
			}
			if inTarget[s] {
				tr.image[ns] = true
			}
		}
	}
	tr.nPre, tr.nPairs, tr.nImage = countTrue(tr.pre), countTrue(tr.pairs), countTrue(tr.image)
	return tr
}

func countTrue(set []bool) int {
	n := 0
	for _, in := range set {
		if in {
			n++
		}
	}
	return n
}

// markCover sets the minterms of cv in set and returns the sum of its
// cube sizes.
func markCover(cv *cube.Cover, set []bool) int {
	sum := 0
	for _, cb := range cv.Cubes() {
		base, free := 0, 0
		for k, v := range cb {
			switch v {
			case lit.True:
				base |= 1 << k
			case lit.Unknown:
				free |= 1 << k
			}
		}
		for sub := free; ; sub = (sub - 1) & free {
			set[base|sub] = true
			sum++
			if sub == 0 {
				break
			}
		}
	}
	return sum
}

// denotation is what a cover denotes against a truth set.
type denotation struct {
	size    int // distinct minterms
	sum     int // cube sizes summed: size exactly when the cubes are pairwise disjoint
	outside int // a minterm outside the truth set, or -1
}

// minterm spells minterm m of an n-position space as a 01 pattern.
func minterm(m, n int) string {
	b := make([]byte, n)
	for k := range b {
		b[k] = byte('0' + m>>k&1)
	}
	return string(b)
}

// oracleTally counts outcomes across a sweep, so the sweep can show it
// took both sides of every abort path it swept. Parallel subtests may
// share one.
type oracleTally struct {
	mu sync.Mutex
	// runs counts capped runs by cap, projection, concurrency and
	// outcome.
	runs map[tallyKey]int
	// preAborts counts, per swept engine, the pre-abort runs that did
	// abort.
	preAborts map[Engine]int
	// widened counts the blocking runs over the latches alone by
	// whether a state cube came back with a free latch. Blocking
	// decides every latch it searches, so a free one is a latch the run
	// dropped from its search space and widened back.
	widened map[bool]int
}

type tallyKey struct {
	cap                         string
	inputs, concurrent, aborted bool
}

func newOracleTally() *oracleTally {
	return &oracleTally{runs: map[tallyKey]int{}, preAborts: map[Engine]int{}, widened: map[bool]int{}}
}

// requireBothSides fails unless every cap the sweep ran aborted some
// runs and left others complete on each projection it ran, both with its
// workers concurrent and not, every swept engine's pre-abort run
// aborted at least once, and, if the sweep ran the blocking engine over
// the latches alone, some such run dropped a latch from its search.
func (ta *oracleTally) requireBothSides(t *testing.T) {
	t.Helper()
	ta.mu.Lock()
	defer ta.mu.Unlock()
	for _, cp := range oracleCaps[1:] {
		for _, inputs := range []bool{false, true} {
			for _, concurrent := range []bool{false, true} {
				aborted := ta.runs[tallyKey{cp.name, inputs, concurrent, true}]
				complete := ta.runs[tallyKey{cp.name, inputs, concurrent, false}]
				if aborted+complete > 0 && (aborted == 0 || complete == 0) {
					t.Errorf("%s/inputs=%v/concurrent=%v: %d aborted and %d complete runs; the cap must take both paths",
						cp.name, inputs, concurrent, aborted, complete)
				}
			}
		}
	}
	for _, eng := range allEngines {
		if n, swept := ta.preAborts[eng]; swept && n == 0 {
			t.Errorf("%v: no pre-abort run aborted, so no warm run followed an abort", eng)
		}
	}
	if ta.widened[false] > 0 && ta.widened[true] == 0 {
		t.Errorf("none of %d state-only blocking runs dropped a latch, so no run widened a cube", ta.widened[false])
	}
}

// oracleEnv is what the warm runs of one sweep share across its
// circuits: a pool and a four-executor scheduler publishing to one
// registry, and a one-executor scheduler for capped parallel cells.
type oracleEnv struct {
	reg            *stats.Registry
	pool           *rt.Pool
	shared, serial *rt.Scheduler
	tally          *oracleTally
	swept          map[Engine]bool
}

// newOracleEnv returns an env counting into tally (a fresh one when
// nil); its schedulers close when tb ends.
func newOracleEnv(tb testing.TB, tally *oracleTally) *oracleEnv {
	if tally == nil {
		tally = newOracleTally()
	}
	reg := stats.NewRegistry("oracle")
	env := &oracleEnv{reg: reg, pool: rt.NewPool(rt.PoolOptions{Stats: reg}),
		shared: rt.NewScheduler(4, reg), serial: rt.NewScheduler(1, nil),
		tally: tally, swept: map[Engine]bool{}}
	tb.Cleanup(func() {
		env.shared.Close()
		env.serial.Close()
	})
	return env
}

// requireReuse fails unless the warm runs reused the pool: every SAT
// engine takes solvers from it, and all but the disjoint one, which
// counts without a BDD, take managers too. The BDD engine builds its own
// manager.
func (env *oracleEnv) requireReuse(tb testing.TB) {
	tb.Helper()
	var solvers, managers bool
	for eng := range env.swept {
		solvers = solvers || eng != EngineBDD
		managers = managers || eng != EngineBDD && eng != EngineDisjoint
	}
	for key, want := range map[string]bool{"runtime.solver-hits": solvers, "runtime.manager-hits": managers} {
		if want && env.reg.Counter(key).Load() == 0 {
			tb.Fatalf("%s is 0, so no warm run reused the pool", key)
		}
	}
}

// oracle checks every engine on one circuit and target.
type oracle struct {
	tb      testing.TB
	c       *circuit.Circuit
	target  *cube.Cover
	truth   *truth
	env     *oracleEnv
	memo    map[string]denotation // by truth set and cover text
	success map[bool]string       // the reference success-driven keys, by WithInputs
}

func newOracle(tb testing.TB, c *circuit.Circuit, target *cube.Cover, env *oracleEnv) *oracle {
	tb.Helper()
	return &oracle{tb: tb, c: c, target: target, truth: simulate(tb, c, target),
		env: env, memo: map[string]denotation{}, success: map[bool]string{}}
}

// checkOracle sweeps the whole matrix on one circuit and target.
func checkOracle(tb testing.TB, c *circuit.Circuit, target *cube.Cover, name string) {
	tb.Helper()
	env := newOracleEnv(tb, nil)
	newOracle(tb, c, target, env).run(name, everyCell)
	env.requireReuse(tb)
}

// denote reads cv against the named truth set, once per distinct cover.
func (o *oracle) denote(set string, want []bool, cv *cube.Cover) denotation {
	key := set + "|" + cv.String()
	if d, ok := o.memo[key]; ok {
		return d
	}
	seen := make([]bool, len(want))
	d := denotation{sum: markCover(cv, seen), outside: -1}
	for m, in := range seen {
		if in && !want[m] {
			d.outside = m
			break
		}
	}
	d.size = countTrue(seen)
	o.memo[key] = d
	return d
}

// checkCover checks a cover against the truth set want of size n:
// sound, counted by count, and complete unless aborted.
func (o *oracle) checkCover(tag, set string, want []bool, n int, cv *cube.Cover, count *big.Int, aborted bool) denotation {
	o.tb.Helper()
	d := o.denote(set, want, cv)
	if d.outside >= 0 {
		o.tb.Fatalf("%s: %s minterm %s is not in the simulated truth", tag, set,
			minterm(d.outside, cv.Space().Size()))
	}
	if count != nil && count.Cmp(big.NewInt(int64(d.size))) != 0 {
		o.tb.Fatalf("%s: Count %v, but the %s cover holds %d", tag, count, set, d.size)
	}
	if !aborted && d.size != n {
		o.tb.Fatalf("%s: complete run denotes %d %s minterms, the simulation %d", tag, d.size, set, n)
	}
	return d
}

// compute runs one cell of the matrix and checks it against the truth.
func (o *oracle) compute(tag string, opts Options, cp oracleCap) *Result {
	o.tb.Helper()
	opts.Budget = cp.b
	res, err := Compute(o.c, o.target, opts)
	if err != nil {
		o.tb.Fatalf("%s: %v", tag, err)
	}
	if res.Engine != opts.Engine {
		o.tb.Fatalf("%s: result names engine %v", tag, res.Engine)
	}
	if res.Aborted != (res.AbortReason != budget.None) {
		o.tb.Fatalf("%s: Aborted %v with reason %v", tag, res.Aborted, res.AbortReason)
	}
	if res.Aborted && res.AbortReason != cp.reason {
		o.tb.Fatalf("%s: aborted by %v under cap %s", tag, res.AbortReason, cp.name)
	}
	d := o.checkCover(tag, "state", o.truth.pre, o.truth.nPre, res.States, res.Count, res.Aborted)
	eng := opts.Engine
	if (eng == EngineBlocking || eng == EngineDisjoint) && !opts.WithInputs && d.sum != d.size {
		o.tb.Fatalf("%s: cubes overlap (%d minterms counted twice)", tag, d.sum-d.size)
	}
	if eng == EngineDisjoint && res.Stats.BlockingClauses != 0 {
		o.tb.Fatalf("%s: the blocking-free engine added %d blocking clauses", tag, res.Stats.BlockingClauses)
	}
	switch {
	case opts.WithInputs && eng != EngineBDD:
		if res.Pairs == nil {
			o.tb.Fatalf("%s: no Pairs with WithInputs", tag)
		}
		o.checkCover(tag, "pair", o.truth.pairs, o.truth.nPairs, res.Pairs, nil, res.Aborted)
	case res.Pairs != nil:
		o.tb.Fatalf("%s: Pairs set without WithInputs", tag)
	}
	o.env.tally.mu.Lock()
	defer o.env.tally.mu.Unlock()
	if cp.name != "none" {
		// A parallel run on no runtime gets a scheduler with an executor
		// per worker.
		concurrent := opts.Parallel > 1 && opts.Runtime == nil
		o.env.tally.runs[tallyKey{cp.name, opts.WithInputs, concurrent, res.Aborted}]++
	}
	if eng == EngineBlocking && !opts.WithInputs {
		o.env.tally.widened[slices.ContainsFunc(res.States.Cubes(), func(cb cube.Cube) bool { return cb.FreeVars() > 0 })]++
	}
	return res
}

// sameRun fails unless two runs returned the same cover, cube for cube.
func (o *oracle) sameRun(tag string, got, want *Result) {
	o.tb.Helper()
	if got.Aborted != want.Aborted || got.AbortReason != want.AbortReason {
		o.tb.Fatalf("%s: aborted=%v (%v), want aborted=%v (%v)",
			tag, got.Aborted, got.AbortReason, want.Aborted, want.AbortReason)
	}
	if got.Count.Cmp(want.Count) != 0 {
		o.tb.Fatalf("%s: Count %v, want %v", tag, got.Count, want.Count)
	}
	if got.States.String() != want.States.String() {
		o.tb.Fatalf("%s: states\n%v\nwant\n%v", tag, got.States, want.States)
	}
	if (got.Pairs == nil) != (want.Pairs == nil) ||
		got.Pairs != nil && got.Pairs.String() != want.Pairs.String() {
		o.tb.Fatalf("%s: pairs differ", tag)
	}
}

// cell is one point of the matrix.
type cell struct {
	eng     Engine
	inputs  bool
	cp      oracleCap
	workers int
	mode    simplify.Mode
}

// slice is the part of the matrix a sweep runs: the cells keep accepts
// (every cell when keep is nil) at the listed worker counts (1, 2, 4 and
// 8 when none are listed), and Image when image is set. With -short only
// the cells short also accepts run: it trims the matrix's axes, never the
// sweep's circuits.
type slice struct {
	keep, short func(cell) bool
	workers     []int
	image       bool
}

// everyCell is the whole matrix, Image included.
var everyCell = slice{image: true}

// simplifyOn accepts the cells with Simplify on, the mode every SAT
// engine runs by default.
func simplifyOn(c cell) bool { return c.mode == simplify.On }

// sequentialOn accepts the sequential cells with Simplify on.
func sequentialOn(c cell) bool { return c.workers == 1 && c.mode == simplify.On }

// skip reports the cells the sweep leaves out: the BDD engine's cells
// with WithInputs or without Simplify, which repeat its other cells (it
// has no CNF to simplify and reports no Pairs), and the cells
// oraclePairLimit skips.
func (o *oracle) skip(c cell) bool {
	if c.eng == EngineBDD {
		return c.inputs || c.mode == simplify.Off
	}
	_, cubes := c.eng.CubeEngine()
	return cubes && c.inputs && c.cp.b.IsZero() && o.truth.nPairs > oraclePairLimit
}

// run sweeps slice s of the matrix.
func (o *oracle) run(name string, s slice) {
	o.tb.Helper()
	workerCounts := s.workers
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8}
	}
	for _, eng := range allEngines {
		for _, inputs := range []bool{false, true} {
			for _, cp := range oracleCaps {
				for _, workers := range workerCounts {
					for _, mode := range []simplify.Mode{simplify.On, simplify.Off} {
						c := cell{eng, inputs, cp, workers, mode}
						if o.skip(c) || s.keep != nil && !s.keep(c) ||
							testing.Short() && s.short != nil && !s.short(c) {
							continue
						}
						o.env.swept[eng] = true
						o.cell(name, c)
					}
				}
			}
		}
	}
	if s.image {
		o.image(name)
	}
}

// cell runs one cell fresh, warm, and warm right after an aborted run.
// A capped parallel run is cut wherever its scheduler happens to be, so
// capped parallel cells run on a one-executor scheduler: it runs the
// subcube jobs in split order, the cut is fixed, and the runtimes and
// the reference must agree cube for cube. Such a cell also runs once
// with its workers really concurrent, a cut checked against the truth
// alone. Unbudgeted cells run with real concurrency.
func (o *oracle) cell(name string, c cell) {
	o.tb.Helper()
	env := o.env
	tag := fmt.Sprintf("%s/%v/inputs=%v/%s/p%d/simplify=%v", name, c.eng, c.inputs, c.cp.name, c.workers, c.mode)
	opts := Options{Engine: c.eng, WithInputs: c.inputs, Parallel: c.workers, Simplify: c.mode}
	var fresh *rt.Runtime
	warm := (&rt.Runtime{Pool: env.pool, Sched: env.shared}).WithTenant(name)
	if c.workers > 1 && !c.cp.b.IsZero() {
		fresh = &rt.Runtime{Sched: env.serial}
		warm = &rt.Runtime{Pool: env.pool, Sched: env.serial}
		o.compute(tag+"/concurrent", opts, c.cp)
	}
	opts.Runtime = fresh
	first := o.compute(tag+"/fresh", opts, c.cp)
	opts.Runtime = warm
	// With -short only the warm run after the abort runs.
	if !testing.Short() {
		o.sameRun(tag+"/warm", o.compute(tag+"/warm", opts, c.cp), first)
	}
	// The aborted run is sequential: the solver or manager it releases
	// is the next one handed out.
	preOpts := opts
	preOpts.Parallel = 1
	n := 0
	if o.compute(tag+"/pre-abort", preOpts, preAbort(c.eng)).Aborted {
		n = 1
	}
	env.tally.mu.Lock()
	env.tally.preAborts[c.eng] += n
	env.tally.mu.Unlock()
	o.sameRun(tag+"/warm-after-abort", o.compute(tag+"/warm-after-abort", opts, c.cp), first)

	if _, cubes := c.eng.CubeEngine(); cubes && c.inputs {
		opts.Runtime, opts.Budget = fresh, c.cp.b
		o.sameRun(tag+"/reference", first, enumerateReference(o.tb, o.c, o.target, opts))
	}
	if c.eng == EngineSuccessDriven && c.cp.b.IsZero() {
		if keys, want := strings.Join(first.States.SortedKeys(), " "), o.successKeys(name, c.inputs); keys != want {
			o.tb.Fatalf("%s: success-driven cover\n%s\ndiffers from p1/simplify=on's\n%s", tag, keys, want)
		}
	}
}

// successKeys returns the sorted keys of the unbudgeted success-driven
// cover at Parallel 1 with Simplify on, which every other worker count
// and simplify mode must reproduce.
func (o *oracle) successKeys(name string, inputs bool) string {
	o.tb.Helper()
	if keys, ok := o.success[inputs]; ok {
		return keys
	}
	tag := fmt.Sprintf("%s/%v/inputs=%v/reference", name, EngineSuccessDriven, inputs)
	opts := Options{Engine: EngineSuccessDriven, WithInputs: inputs, Parallel: 1, Simplify: simplify.On}
	keys := strings.Join(o.compute(tag, opts, oracleCaps[0]).States.SortedKeys(), " ")
	o.success[inputs] = keys
	return keys
}

// image checks Image of every engine at Parallel 1 and 4.
func (o *oracle) image(name string) {
	o.tb.Helper()
	for _, eng := range allEngines {
		for _, workers := range []int{1, 4} {
			tag := fmt.Sprintf("%s/image/%v/p%d", name, eng, workers)
			res, err := Image(o.c, o.target, Options{Engine: eng, Parallel: workers})
			if err != nil {
				o.tb.Fatalf("%s: %v", tag, err)
			}
			o.checkCover(tag, "image", o.truth.image, o.truth.nImage, res.States, res.Count, res.Aborted)
			if res.Aborted {
				o.tb.Fatalf("%s: unbudgeted image aborted (%v)", tag, res.AbortReason)
			}
		}
	}
}

// enumerateReference computes a blocking, lifting or disjoint WithInputs
// preimage without the streamed state projection: allsat.Enumerate*
// simplifies the instance as opts asks, with the projection frozen, and
// builds and counts the whole (state, input) cover, which is then
// projected onto the latches, reduced unless the circuit has no inputs
// (see below), and counted through a BDD.
func enumerateReference(tb testing.TB, c *circuit.Circuit, target *cube.Cover, opts Options) *Result {
	tb.Helper()
	inst, err := trans.NewInstance(c, target)
	if err != nil {
		tb.Fatal(err)
	}
	projVars, projNames := inst.OrderedProjection(opts.InputFirstOrder, opts.Interleave)
	projSpace := cube.NewNamedSpace(projVars, projNames)
	as := allsat.Options{Budget: opts.Budget.Materialize(), Simplify: opts.Simplify, Runtime: opts.Runtime}
	if opts.Parallel > 1 {
		as.Workers = opts.Parallel
	}
	enumerate := map[Engine]func(*cnf.Formula, *cube.Space, allsat.Options) *allsat.Result{
		EngineBlocking: allsat.EnumerateBlocking,
		EngineLifting:  allsat.EnumerateLifting,
		EngineDisjoint: allsat.EnumerateDisjoint,
	}[opts.Engine]
	ar := enumerate(inst.F, projSpace, as)
	states := cube.NewCover(StateSpace(c))
	for _, cb := range ar.Cover.Cubes() {
		sc := states.Space().FullCube()
		for i, v := range inst.StateVars {
			sc[i] = cb[projSpace.PosOf(v)]
		}
		states.Add(sc)
	}
	if opts.Engine == EngineLifting || len(inst.InputVars) > 0 {
		// A blocking or disjoint cover over the latches alone is
		// pairwise disjoint and stays in engine (or subcube) order.
		states.Reduce()
	}
	m := bdd.NewOrdered(states.Space().Vars())
	return &Result{
		States:      states,
		Count:       m.SatCount(m.FromCover(states)),
		Pairs:       pairCover(inst, projSpace, ar.Cover.Cubes()),
		Aborted:     ar.Aborted,
		AbortReason: ar.Reason,
	}
}

// suiteCircuit is a corpus circuit with the target the oracle computes
// the preimage of.
type suiteCircuit struct {
	gen.NamedCircuit
	Target *cube.Cover
}

// determinismSuite is the seed-circuit subset the oracle, the walk and
// the incremental suites sweep. Every target has a non-empty, proper
// preimage: most circuits take wideTarget's pattern, but latch 1 of
// slike1 is never 1, so that pattern's preimage is empty there and
// slike1 fixes latch 0 instead.
func determinismSuite() []suiteCircuit {
	wide := func(name string, c *circuit.Circuit) suiteCircuit {
		return suiteCircuit{gen.NamedCircuit{Name: name, Circuit: c}, wideTarget(len(c.Latches))}
	}
	slike1 := wide("slike1", gen.SLike(gen.SLikeParams{Seed: 1, Inputs: 6, Latches: 6, Gates: 60}))
	slike1.Target = trans.TargetFromPatterns(6, "1XXX0X")
	return []suiteCircuit{
		wide("counter8", gen.Counter(8, true, false)),
		wide("shift8", gen.ShiftRegister(8)),
		wide("lfsr8", gen.LFSR(8, 0, 3, 4, 5)),
		wide("gray6", gen.GrayCounter(6)),
		wide("traffic", gen.TrafficLight()),
		slike1,
		wide("slike2", gen.SLike(gen.SLikeParams{Seed: 2, Inputs: 8, Latches: 8, Gates: 120})),
	}
}

// suiteMembers returns the named determinismSuite circuits, in suite
// order.
func suiteMembers(names ...string) []suiteCircuit {
	var out []suiteCircuit
	for _, sc := range determinismSuite() {
		if slices.Contains(names, sc.Name) {
			out = append(out, sc)
		}
	}
	return out
}

// wideTarget builds a mostly-free target pattern (two fixed bits) so the
// preimage is non-trivial — fully fixed patterns propagate to empty or
// tiny preimages on the slike instances, which would let a sweep pass
// vacuously.
func wideTarget(nL int) *cube.Cover {
	pat := make([]byte, nL)
	for i := range pat {
		pat[i] = 'X'
	}
	pat[1] = '1'
	if nL > 4 {
		pat[4] = '0'
	}
	return trans.TargetFromPatterns(nL, string(pat))
}

// randomTargets draws n 01X patterns per circuit from rng.
func randomTargets(rng *rand.Rand, n int, circuits ...*circuit.Circuit) []suiteCircuit {
	var out []suiteCircuit
	for _, c := range circuits {
		for rep := 0; rep < n; rep++ {
			pat := make([]byte, len(c.Latches))
			for i := range pat {
				pat[i] = "01X"[rng.Intn(3)]
			}
			out = append(out, suiteCircuit{gen.NamedCircuit{Name: fmt.Sprintf("%s#%d", c.Name, rep), Circuit: c},
				trans.TargetFromPatterns(len(c.Latches), string(pat))})
		}
	}
	return out
}

// s27Targets are the s27 targets the brute-force checks used.
func s27Targets(t *testing.T) []suiteCircuit {
	s27 := loadS27(t)
	var out []suiteCircuit
	for _, pats := range [][]string{{"1XX"}, {"111"}, {"000", "110"}, {"X0X"}, {"XXX"}} {
		out = append(out, suiteCircuit{gen.NamedCircuit{Name: strings.Join(pats, "+"), Circuit: s27},
			trans.TargetFromPatterns(3, pats...)})
	}
	return out
}

// suiteTargets are the random targets the brute-force preimage check
// drew from its fixed seed.
func suiteTargets() []suiteCircuit {
	return randomTargets(rand.New(rand.NewSource(77)), 2,
		gen.Counter(5, true, false),
		gen.ShiftRegister(5),
		gen.LFSR(5, 0, 2),
		gen.Johnson(5),
		gen.GrayCounter(4),
		gen.TrafficLight(),
		gen.SLike(gen.SLikeParams{Seed: 11, Inputs: 4, Latches: 5, Gates: 30}),
		gen.SLike(gen.SLikeParams{Seed: 12, Inputs: 5, Latches: 6, Gates: 50, XorFraction: 0.4}))
}

// imageTargets are the random initial sets the brute-force image check
// drew from its fixed seed.
func imageTargets() []suiteCircuit {
	return randomTargets(rand.New(rand.NewSource(88)), 2,
		gen.Counter(5, true, false),
		gen.ShiftRegister(5),
		gen.Johnson(5),
		gen.TrafficLight(),
		gen.SLike(gen.SLikeParams{Seed: 41, Inputs: 4, Latches: 5, Gates: 30}))
}

// noPredecessors names the brute-force targets no state reaches in one
// step: they stay in the corpus as the case where every engine must
// answer empty, and every other target must have predecessors.
var noPredecessors = map[string]bool{"111": true, "lfsr5#0": true, "slike_s12_g50_l6#0": true}

// oracleCase builds the oracle of sc, whose truth must be empty exactly
// when noPredecessors names it.
func oracleCase(t *testing.T, sc suiteCircuit, env *oracleEnv) *oracle {
	t.Helper()
	o := newOracle(t, sc.Circuit, sc.Target, env)
	if (o.truth.nPre == 0) != noPredecessors[sc.Name] {
		t.Fatalf("%s: %d predecessors; noPredecessors must list exactly the targets with none", sc.Name, o.truth.nPre)
	}
	return o
}

// sweepOracle runs slice s on every circuit of corpus with one env, so
// the warm runs share a pool and scheduler across circuits. Every cap it
// runs must abort some runs and leave others complete, and the warm runs
// must reuse the pool, so no check passes vacuously.
func sweepOracle(t *testing.T, corpus []suiteCircuit, s slice) {
	t.Helper()
	env := newOracleEnv(t, nil)
	for _, sc := range corpus {
		oracleCase(t, sc, env).run(sc.Name, s)
	}
	env.tally.requireBothSides(t)
	env.requireReuse(t)
}

func cubeEngine(eng Engine) bool {
	_, cubes := eng.CubeEngine()
	return cubes
}

// The tests from here to TestDeterministicCoverBDDEngine split the
// determinism suite's matrix among them, each cell in exactly one.

// TestDeterministicCoverAcrossWorkers sweeps the success-driven engine's
// unbudgeted cells. Its cover has the same sorted keys at every worker
// count and simplify mode, over the latches and WithInputs.
func TestDeterministicCoverAcrossWorkers(t *testing.T) {
	t.Parallel()
	sweepOracle(t, determinismSuite(), slice{keep: func(c cell) bool {
		return c.eng == EngineSuccessDriven && c.cp.b.IsZero()
	}})
}

// TestDeterministicCoverBlockingEngines sweeps the blocking and lifting
// engines' unbudgeted cells over the latches with Simplify on.
func TestDeterministicCoverBlockingEngines(t *testing.T) {
	t.Parallel()
	sweepOracle(t, determinismSuite(), slice{keep: func(c cell) bool {
		return (c.eng == EngineBlocking || c.eng == EngineLifting) &&
			!c.inputs && c.cp.b.IsZero() && c.mode == simplify.On
	}})
}

// TestDeterministicCoverDisjointEngine sweeps the disjoint engine's
// unbudgeted cells over the latches with Simplify on: pairwise disjoint
// covers, exact at every worker count, with no blocking clause.
func TestDeterministicCoverDisjointEngine(t *testing.T) {
	t.Parallel()
	sweepOracle(t, determinismSuite(), slice{keep: func(c cell) bool {
		return c.eng == EngineDisjoint && !c.inputs && c.cp.b.IsZero() && c.mode == simplify.On
	}})
}

// TestSimplifyEquivalenceAllEngines sweeps the cube engines' unbudgeted
// cells over the latches with Simplify off; their Simplify on cells are
// in the two tests above, the success-driven engine's in
// TestDeterministicCoverAcrossWorkers, and the BDD engine has no CNF to
// simplify.
func TestSimplifyEquivalenceAllEngines(t *testing.T) {
	t.Parallel()
	sweepOracle(t, determinismSuite(), slice{keep: func(c cell) bool {
		return cubeEngine(c.eng) && !c.inputs && c.cp.b.IsZero() && c.mode == simplify.Off
	}})
}

// TestDeterministicStateCoverCubeEngines sweeps every engine's cells
// over the latches under the cube cap, with Simplify on and off (with
// -short, on alone). Only the cube engines' covers are wide enough for
// the cap to cut; the others must stay complete under it.
func TestDeterministicStateCoverCubeEngines(t *testing.T) {
	t.Parallel()
	sweepOracle(t, determinismSuite(), slice{short: simplifyOn, keep: func(c cell) bool {
		return !c.inputs && c.cp.reason == budget.Cubes
	}})
}

// TestAbortSoundnessAcrossWorkers sweeps every engine's cells over the
// latches under the decision cap with Simplify off.
func TestAbortSoundnessAcrossWorkers(t *testing.T) {
	t.Parallel()
	sweepOracle(t, determinismSuite(), slice{keep: func(c cell) bool {
		return !c.inputs && c.cp.reason == budget.Decisions && c.mode == simplify.Off
	}})
}

// TestSimplifyAbortSubsetSound sweeps every engine's cells over the
// latches under the decision cap with Simplify on. The BDD engine makes
// no decisions and must stay complete under it.
func TestSimplifyAbortSubsetSound(t *testing.T) {
	t.Parallel()
	sweepOracle(t, determinismSuite(), slice{keep: func(c cell) bool {
		return !c.inputs && c.cp.reason == budget.Decisions && c.mode == simplify.On
	}})
}

// TestStreamedProjectionEquivalence sweeps the WithInputs cells: every
// one of the cube engines, each of which must equal the
// enumerate-then-project reference cube for cube, and the success-driven
// engine's capped ones. With -short it runs Simplify on alone.
func TestStreamedProjectionEquivalence(t *testing.T) {
	t.Parallel()
	sweepOracle(t, determinismSuite(), slice{short: simplifyOn, keep: func(c cell) bool {
		return c.inputs && (cubeEngine(c.eng) || !c.cp.b.IsZero())
	}})
}

// TestDeterministicCoverBDDEngine sweeps the BDD engine's unbudgeted
// cells: the monolithic and the parallel builds both equal the
// simulated preimage.
func TestDeterministicCoverBDDEngine(t *testing.T) {
	t.Parallel()
	sweepOracle(t, determinismSuite(), slice{keep: func(c cell) bool {
		return c.eng == EngineBDD && c.cp.b.IsZero()
	}})
}

// TestParallelEqualsSerial runs every engine's unbudgeted cells over the
// latches at 7 workers, a count that splits no guiding path evenly, and
// Image at Parallel 1 and 4, on the determinism suite.
func TestParallelEqualsSerial(t *testing.T) {
	t.Parallel()
	sweepOracle(t, determinismSuite(), slice{workers: []int{7}, image: true, keep: func(c cell) bool {
		return !c.inputs && c.cp.b.IsZero() && c.mode == simplify.On
	}})
}

// TestRuntimeReuseBitIdentical sweeps the whole matrix (with -short, its
// Simplify on cells and its capped cells over the latches) on three
// small circuits with one pool and scheduler shared across them, so a
// warm solver or manager comes back for a different formula. With
// Simplify on, every search over the latches here stays under both caps,
// so -short keeps the Simplify off ones, which the caps cut.
func TestRuntimeReuseBitIdentical(t *testing.T) {
	t.Parallel()
	sweepOracle(t, randomTargets(rand.New(rand.NewSource(321)), 1,
		gen.Counter(5, true, false),
		gen.LFSR(5, 0, 2),
		gen.SLike(gen.SLikeParams{Seed: 31, Inputs: 4, Latches: 5, Gates: 30})), slice{image: true, short: func(c cell) bool {
		return simplifyOn(c) || !c.inputs && !c.cp.b.IsZero()
	}})
}

// TestRuntimeReuseAfterAbort sweeps the sequential cells over the
// latches on an 8-latch SLike circuit, where the pre-abort runs cut
// deeper searches than on the determinism suite before their warm runs.
func TestRuntimeReuseAfterAbort(t *testing.T) {
	t.Parallel()
	c := gen.SLike(gen.SLikeParams{Seed: 33, Inputs: 5, Latches: 8, Gates: 60})
	sweepOracle(t, []suiteCircuit{{gen.NamedCircuit{Name: c.Name, Circuit: c},
		trans.TargetFromPatterns(len(c.Latches), "1XXXXXX0")}}, slice{workers: []int{1}, keep: func(c cell) bool {
		return !c.inputs
	}})
}

// TestSuiteCircuitsAllEngines sweeps the whole matrix (with -short, its
// sequential Simplify on cells) on the random targets of eight small
// circuits.
func TestSuiteCircuitsAllEngines(t *testing.T) {
	t.Parallel()
	sweepOracle(t, suiteTargets(), slice{image: true, short: sequentialOn})
}

// TestOracle sweeps the whole matrix (with -short, its sequential
// Simplify on cells) on the s27 targets and on the image check's initial
// sets, one parallel subtest each; across the two every cap aborts some
// runs and leaves others complete.
func TestOracle(t *testing.T) {
	tally := newOracleTally()
	t.Cleanup(func() {
		if !t.Failed() {
			tally.requireBothSides(t)
		}
	})
	for _, group := range []struct {
		name   string
		corpus []suiteCircuit
	}{{"s27", s27Targets(t)}, {"image", imageTargets()}} {
		t.Run(group.name, func(t *testing.T) {
			t.Parallel()
			env := newOracleEnv(t, tally)
			for _, sc := range group.corpus {
				oracleCase(t, sc, env).run(sc.Name, slice{image: true, short: sequentialOn})
			}
			env.requireReuse(t)
		})
	}
}

// FuzzOracle runs the oracle's matrix on random SLike circuits of up to
// six latches and five inputs, with a fuzzed target pattern (one byte
// per latch, read mod 3 as 0, 1 or X; missing bytes are X). Its seeds
// are skipped with -short, whose determinism sweeps take every path.
func FuzzOracle(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(20), "2\x010")
	f.Add(int64(7), uint8(5), uint8(4), uint8(40), "\x01")
	f.Add(int64(13), uint8(1), uint8(0), uint8(5), "")
	f.Fuzz(func(t *testing.T, seed int64, latches, inputs, gates uint8, pattern string) {
		if testing.Short() {
			t.Skip("the -short determinism sweeps stand in for the seed corpus")
		}
		p := gen.SLikeParams{Seed: seed, Latches: 1 + int(latches)%6, Inputs: 1 + int(inputs)%5, Gates: 1 + int(gates)%64}
		c := gen.SLike(p)
		pat := make([]byte, p.Latches)
		for i := range pat {
			pat[i] = 'X'
			if i < len(pattern) {
				pat[i] = "01X"[pattern[i]%3]
			}
		}
		checkOracle(t, c, trans.TargetFromPatterns(p.Latches, string(pat)), c.Name+"/"+string(pat))
	})
}

// TestOracleDRUPCompleteness certifies completeness past the simulation
// bound, on an SLike 14-input, 16-latch, 600-gate circuit with a target
// shaped like the deadline-bound serving benchmark's (a state reached
// from reset, every fifth latch free). For the success-driven cover C,
// T(s,x,s′) ∧ N(s′) ∧ ¬C(s) must be UNSAT with a DRUP proof the
// independent checker accepts; with a cube of C dropped that holds a
// state no other cube covers it must be SAT, on a state of that cube
// whose simulated successor is in N.
func TestOracleDRUPCompleteness(t *testing.T) {
	c := gen.SLike(gen.SLikeParams{Seed: 3000, Inputs: 14, Latches: 16, Gates: 600})
	sim, err := circuit.NewSimulator(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	st, in := make([]bool, len(c.Latches)), make([]bool, len(c.Inputs))
	for step := 0; step < 5; step++ {
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		_, st = sim.Step(st, in)
	}
	pat := make([]byte, len(st))
	for i, v := range st {
		switch {
		case i%5 == 4:
			pat[i] = 'X'
		case v:
			pat[i] = '1'
		default:
			pat[i] = '0'
		}
	}
	target := trans.TargetFromPatterns(len(c.Latches), string(pat))
	res, err := Compute(c, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted || res.States.Len() < 2 {
		t.Fatalf("target %s: %d cubes, aborted=%v; want a complete cover of two or more", pat, res.States.Len(), res.Aborted)
	}
	inst, err := trans.NewInstance(c, target)
	if err != nil {
		t.Fatal(err)
	}
	// certify solves T ∧ N ∧ ¬cubes with proof logging on.
	certify := func(cubes []cube.Cube) (*cnf.Formula, *sat.Solver, sat.Status, *bytes.Buffer) {
		f := inst.F.Clone()
		for _, cb := range cubes {
			var block []lit.Lit
			for i, v := range cb {
				if v != lit.Unknown {
					block = append(block, lit.New(inst.StateVars[i], v == lit.True))
				}
			}
			f.AddClause(block)
		}
		s := sat.FromFormula(f, sat.DefaultOptions())
		proof := &bytes.Buffer{}
		s.SetProofWriter(proof)
		status := s.Solve()
		s.FlushProof()
		return f, s, status, proof
	}
	cubes := res.States.Cubes()
	f, _, status, proof := certify(cubes)
	if status != sat.Unsat {
		t.Fatalf("T ∧ N ∧ ¬C is %v: the cover misses a predecessor", status)
	}
	t.Logf("target %s: %d cubes, %v states, a %d-byte proof", pat, len(cubes), res.Count, proof.Len())
	if err := sat.CheckDRUP(f, proof); err != nil {
		t.Fatalf("the completeness proof does not check: %v", err)
	}

	// Drop a cube holding a state no other cube covers.
	m := bdd.NewOrdered(res.StateSpace.Vars())
	full, drop := m.FromCover(res.States), -1
	for i := range cubes {
		rest := cube.NewCover(res.StateSpace)
		for j, cb := range cubes {
			if j != i {
				rest.Add(cb)
			}
		}
		if m.FromCover(rest) != full {
			drop = i
			break
		}
	}
	if drop < 0 {
		t.Fatal("every cube of the cover is covered by the others")
	}
	dropped := cubes[drop]
	_, s, status, _ := certify(slices.Delete(slices.Clone(cubes), drop, drop+1))
	if status != sat.Sat {
		t.Fatalf("with cube %s dropped, T ∧ N ∧ ¬C is %v, want SAT", dropped, status)
	}
	model := s.Model()
	for i, v := range inst.StateVars {
		st[i] = model[v]
	}
	for i, v := range inst.InputVars {
		in[i] = model[v]
	}
	if !dropped.ContainsMinterm(st) {
		t.Fatalf("the model's state is outside the dropped cube %s", dropped)
	}
	if _, next := sim.Step(st, in); !target.Contains(next) {
		t.Fatal("the model's (state, input) does not step into the target")
	}
}
