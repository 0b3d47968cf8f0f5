// Package simplify is a projection-safe CNF preprocessor in the SatELite
// lineage (Eén & Biere, "Effective Preprocessing in SAT through Variable
// and Clause Elimination"): bounded variable elimination by resolution,
// forward/backward subsumption and self-subsuming resolution over an
// occurrence index with 64-bit clause signatures, and top-level
// failed-literal probing.
//
// The pass is *projection-safe*: a caller-supplied frozen set names the
// variables whose joint solution projection must be preserved exactly —
// projection/input variables, latch next-state variables, incremental
// activation/selector literals. Frozen variables are never eliminated and
// never dropped when fixed, so for every frozen-variable assignment the
// simplified formula is satisfiable iff the original is. Non-frozen
// (auxiliary) variables are fair game: eliminating a variable v replaces
// its clauses with all non-tautological resolvents on v, which computes
// ∃v.F exactly. All-solutions enumeration projected onto the frozen set
// therefore denotes the same solution set with or without simplification
// (search-dependent engines may tile that set into different — often
// larger — cubes, since shrinking no longer walks eliminated aux vars).
//
// Every elimination is recorded on a stack; Result.Extend replays it in
// reverse to reconstruct a total model of the original formula from a
// model of the simplified one — the SatELite model-extension rule — for
// callers that need full witnesses rather than projections.
package simplify

import (
	"cmp"
	"slices"

	"allsatpre/internal/cnf"
	"allsatpre/internal/lit"
)

// Mode is a tri-state switch for threading the simplifier through option
// structs whose zero value must mean "use the context's default".
type Mode int

// Modes. Auto means on at every entry point: one-shot enumeration and
// incremental sessions alike (a session simplifies its base CNF once,
// before its first step).
const (
	Auto Mode = iota
	On
	Off
)

// Enabled reports whether the pass runs: On and Auto run it, Off skips it.
func (m Mode) Enabled() bool { return m != Off }

func (m Mode) String() string {
	switch m {
	case On:
		return "on"
	case Off:
		return "off"
	default:
		return "auto"
	}
}

// Options tunes the simplifier. Zero fields take their DefaultOptions
// values, so the zero value is the standard tuning with probing on.
type Options struct {
	// MaxGrowth is the clause-count growth allowed when eliminating one
	// variable: v is eliminated only when the number of non-tautological
	// resolvents is at most (occurrences of v) + MaxGrowth. 0 (the
	// NiVER/SatELite default) never grows the clause count.
	MaxGrowth int
	// MaxOccur skips elimination for variables occurring more often than
	// this (the resolvent check is quadratic in the occurrence counts).
	MaxOccur int
	// NoProbing disables top-level failed-literal probing, which otherwise
	// assumes each candidate literal, propagates, and adds the negation as
	// a unit when propagation hits a conflict.
	NoProbing bool
	// MaxProbes caps the number of probed literals per run.
	MaxProbes int
	// MaxRounds bounds the simplify–eliminate fixpoint iteration.
	MaxRounds int
}

// DefaultOptions returns the standard tuning.
func DefaultOptions() Options {
	return Options{
		MaxGrowth: 0,
		MaxOccur:  80,
		MaxProbes: 4096,
		MaxRounds: 8,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.MaxOccur == 0 {
		o.MaxOccur = d.MaxOccur
	}
	if o.MaxProbes == 0 {
		o.MaxProbes = d.MaxProbes
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = d.MaxRounds
	}
	return o
}

// Stats counts the work one Run performed.
type Stats struct {
	// Applied is true when the simplifier ran (distinguishes a zero-work
	// run from "simplification disabled").
	Applied bool
	// Rounds is the number of simplify–eliminate rounds executed.
	Rounds int
	// VarsEliminated counts variables removed by resolution (including
	// pure literals, whose resolvent set is empty).
	VarsEliminated int
	// UnitsFixed counts variables assigned at top level (input units,
	// strengthened-to-unit clauses, failed-literal negations).
	UnitsFixed int
	// ClausesSubsumed counts clauses deleted because a subset clause
	// exists (forward and backward subsumption, and resolvents dropped
	// on arrival because an existing clause subsumes them).
	ClausesSubsumed int
	// LitsStrengthened counts literals removed by self-subsuming
	// resolution and by unit propagation into clauses.
	LitsStrengthened int
	// ResolventsAdded counts clauses added by variable elimination.
	ResolventsAdded int
	// Probes / ProbeFailures count failed-literal probing activity.
	Probes, ProbeFailures int
	// ClausesBefore/After and LitsBefore/After measure the net effect.
	ClausesBefore, ClausesAfter int
	LitsBefore, LitsAfter       int
}

// record is one entry of the elimination stack, in chronological order.
// A unit record (clauses == nil) fixes a non-frozen variable; a variable-
// elimination record saves the clauses resolved away with v so Extend can
// choose a satisfying value.
type record struct {
	v       lit.Var
	unit    lit.Lit
	clauses []cnf.Clause
}

// Result reports one Run and carries the elimination stack for witness
// reconstruction.
type Result struct {
	// Unsat is true when simplification proved the formula unsatisfiable
	// (the formula was rewritten to a single empty clause).
	Unsat bool
	// Stats counts the transformation.
	Stats Stats

	numVars int
	stack   []record
}

// Run simplifies f in place: f.Clauses is replaced, and the clause slices
// it held are left unmodified. frozen(v) must report true for every
// variable whose solution projection matters to the caller; those are
// never eliminated, and top-level units fixing them are re-emitted so
// enumeration engines still see the constraint. f.NumVars is never
// changed, so variable ids, projection spaces, and solver sizing stay
// valid. When the formula is proved unsatisfiable, f is rewritten to a
// single empty clause and Result.Unsat is set.
func Run(f *cnf.Formula, frozen func(lit.Var) bool, opts Options) *Result {
	sp := newSimplifier(f, frozen, opts.withDefaults())
	sp.stats.ClausesBefore = len(f.Clauses)
	sp.stats.LitsBefore = f.NumLits()
	sp.load()
	sp.propagate()
	for round := 0; round < sp.opts.MaxRounds && !sp.unsat; round++ {
		changed := sp.subsumePass()
		if round == 0 && !sp.opts.NoProbing && !sp.unsat {
			changed = sp.probePass() || changed
		}
		if !sp.unsat {
			changed = sp.bvePass() || changed
		}
		sp.stats.Rounds++
		if !changed {
			break
		}
	}
	sp.rebuild(f)
	sp.stats.Applied = true
	sp.stats.ClausesAfter = len(f.Clauses)
	sp.stats.LitsAfter = f.NumLits()
	return &Result{
		Unsat:   sp.unsat,
		Stats:   sp.stats,
		numVars: f.NumVars,
		stack:   sp.stack,
	}
}

// RunFrozen is Run with the frozen set given as variable lists: every
// variable named in any list (ids at or beyond f.NumVars are ignored) is
// preserved. It is the projection-safe entry point for callers that keep
// a projection space — plus any variables they will constrain later —
// intact.
func RunFrozen(f *cnf.Formula, frozen ...[]lit.Var) *Result {
	keep := make([]bool, f.NumVars)
	for _, vs := range frozen {
		for _, v := range vs {
			if int(v) < len(keep) {
				keep[v] = true
			}
		}
	}
	return Run(f, func(v lit.Var) bool { return keep[v] }, Options{})
}

// Extend reconstructs a total model of the original formula from a model
// of the simplified one (indexed by variable; missing positions default
// to false and are overwritten as needed). The elimination stack is
// replayed in reverse: a later-eliminated variable never appears in an
// earlier record's saved clauses, so each step sees the final values of
// every other variable it mentions. For an elimination record the
// SatELite rule applies — set v false unless some saved clause is then
// unsatisfied, in which case v must be true (the resolvents, satisfied by
// the model, guarantee the opposite phase's clauses are covered).
func (r *Result) Extend(model []bool) []bool {
	for len(model) < r.numVars {
		model = append(model, false)
	}
	for i := len(r.stack) - 1; i >= 0; i-- {
		rec := r.stack[i]
		if rec.clauses == nil {
			model[rec.v] = !rec.unit.Sign()
			continue
		}
		val := false
		for _, c := range rec.clauses {
			if !clauseSatisfied(c, model, rec.v, false) {
				val = true
				break
			}
		}
		model[rec.v] = val
	}
	return model
}

// Eliminated reports whether v was removed (eliminated or fixed) by the
// run; such variables carry stack records and are reconstructed by
// Extend.
func (r *Result) Eliminated(v lit.Var) bool {
	for _, rec := range r.stack {
		if rec.v == v {
			return true
		}
	}
	return false
}

// clauseSatisfied evaluates c under the total model, with variable v
// forced to vVal.
func clauseSatisfied(c cnf.Clause, model []bool, v lit.Var, vVal bool) bool {
	for _, l := range c {
		val := vVal
		if l.Var() != v {
			val = model[l.Var()]
		}
		if val != l.Sign() {
			return true
		}
	}
	return false
}

// simplifier is the occurrence-indexed clause database the passes share.
//
// Occurrence lists are exact: occ[l] holds, in insertion order, every
// clause that still contains l, plus dead clauses not yet swept out, so a
// clause is live in occ[l] exactly when it is not dead.
type simplifier struct {
	opts   Options
	f      *cnf.Formula
	frozen []bool

	lits  []lit.Lit    // arena chunk the clauses are carved from
	cls   []cnf.Clause // normalized, capped arena slices; never mutated after death
	dead  []bool
	dirty []bool // strengthened since subsumeWith last visited the clause
	sig   []uint64

	occ    [][]int // literal -> clause indexes containing it (dead ones swept lazily)
	occCnt []int   // literal -> live occurrence count

	val  []lit.Tern // top-level assignment, by var
	gone []bool     // eliminated by resolution, by var

	unitQ []lit.Lit

	// probe scratch: literals made true by the current probe, dfs stack.
	probeTrail []lit.Lit
	probeQ     []lit.Lit

	// elimination scratch: candidate resolvents, packed; resEnd[i] is the
	// end offset of resolvent i in resLits.
	resLits []lit.Lit
	resEnd  []int

	stack []record
	stats Stats
	unsat bool
}

func newSimplifier(f *cnf.Formula, frozen func(lit.Var) bool, opts Options) *simplifier {
	n := f.NumVars
	sp := &simplifier{
		opts:   opts,
		f:      f,
		frozen: make([]bool, n),
		occ:    make([][]int, 2*n),
		occCnt: make([]int, 2*n),
		val:    make([]lit.Tern, n),
		gone:   make([]bool, n),
	}
	for v := 0; v < n; v++ {
		sp.frozen[v] = frozen(lit.Var(v))
	}
	return sp
}

// signature hashes a clause into a 64-bit Bloom filter over its literals;
// sub ⊆ super requires sig(sub) &^ sig(super) == 0.
func signature(c cnf.Clause) uint64 {
	var s uint64
	for _, l := range c {
		s |= 1 << (uint(l) % 64)
	}
	return s
}

// subsumes reports c ⊆ d for normalized (sorted, deduplicated) clauses.
func subsumes(c, d cnf.Clause) bool {
	if len(c) > len(d) {
		return false
	}
	i := 0
	for _, l := range d {
		if i == len(c) {
			return true
		}
		if c[i] == l {
			i++
		} else if c[i] < l {
			return false
		}
	}
	return i == len(c)
}

// load copies the input clauses into one literal arena, normalizing each
// in place, and queues units. A counting pass sizes the arena and every
// occurrence list up front.
func (sp *simplifier) load() {
	total := 0
	for _, c := range sp.f.Clauses {
		total += len(c)
		for _, l := range c {
			sp.occCnt[l]++
		}
	}
	occBuf := make([]int, total)
	off := 0
	for l, k := range sp.occCnt {
		sp.occ[l] = occBuf[off : off : off+k]
		off += k
	}
	clear(sp.occCnt)
	m := len(sp.f.Clauses)
	sp.cls = make([]cnf.Clause, 0, m)
	sp.dead = make([]bool, 0, m)
	sp.dirty = make([]bool, 0, m)
	sp.sig = make([]uint64, 0, m)

	// The arena holds every input literal, so the appends below never
	// reallocate: nc is normalized in the arena's spare capacity and only
	// a kept clause extends the arena over it.
	sp.lits = make([]lit.Lit, 0, total)
	for _, c := range sp.f.Clauses {
		start := len(sp.lits)
		nc, taut := cnf.Clause(append(sp.lits, c...)[start:]).NormalizeInPlace()
		switch {
		case taut:
		case len(nc) == 0:
			sp.unsat = true
			return
		case len(nc) == 1:
			sp.unitQ = append(sp.unitQ, nc[0])
		default:
			sp.lits = sp.lits[:start+len(nc)]
			sp.addClause(nc[:len(nc):len(nc)])
		}
	}
}

// store copies a clause into the literal arena, opening a fresh chunk
// when the current one is full (earlier chunks stay referenced by their
// clauses), and returns the capped copy.
func (sp *simplifier) store(c []lit.Lit) cnf.Clause {
	if cap(sp.lits)-len(sp.lits) < len(c) {
		sp.lits = make([]lit.Lit, 0, max(len(c), 512))
	}
	start := len(sp.lits)
	sp.lits = append(sp.lits, c...)
	return sp.lits[start:len(sp.lits):len(sp.lits)]
}

// addClause inserts a normalized clause (length ≥ 2) into the database.
func (sp *simplifier) addClause(c cnf.Clause) int {
	ci := len(sp.cls)
	sp.cls = append(sp.cls, c)
	sp.dead = append(sp.dead, false)
	sp.dirty = append(sp.dirty, false)
	sp.sig = append(sp.sig, signature(c))
	for _, l := range c {
		sp.occ[l] = append(sp.occ[l], ci)
		sp.occCnt[l]++
	}
	return ci
}

// kill tombstones a clause. Dead clause values are never mutated, so
// elimination records may alias them.
func (sp *simplifier) kill(ci int) {
	if sp.dead[ci] {
		return
	}
	sp.dead[ci] = true
	for _, l := range sp.cls[ci] {
		sp.occCnt[l]--
	}
}

// strengthen removes literal rem from live clause ci in place. The caller
// removes ci from occ[rem]: both callers are ranging over that list. A
// clause strengthened to a unit is killed and its literal queued.
func (sp *simplifier) strengthen(ci int, rem lit.Lit) {
	c := sp.cls[ci]
	i := slices.Index(c, rem)
	copy(c[i:], c[i+1:])
	nc := c[:len(c)-1]
	sp.occCnt[rem]--
	sp.stats.LitsStrengthened++
	if len(nc) == 0 {
		sp.unsat = true
		return
	}
	sp.cls[ci] = nc
	sp.sig[ci] = signature(nc)
	sp.dirty[ci] = true
	if len(nc) == 1 {
		sp.dead[ci] = true
		sp.occCnt[nc[0]]--
		sp.unitQ = append(sp.unitQ, nc[0])
	}
}

// occLive returns the live clause indexes containing l, sweeping dead
// entries out of the occurrence list in place.
func (sp *simplifier) occLive(l lit.Lit) []int {
	list := sp.occ[l][:0]
	for _, ci := range sp.occ[l] {
		if !sp.dead[ci] {
			list = append(list, ci)
		}
	}
	sp.occ[l] = list
	return list
}

// assign fixes a variable at top level, recording non-frozen assignments
// for witness reconstruction (frozen units are re-emitted by rebuild, so
// the solver model carries them).
func (sp *simplifier) assign(l lit.Lit) bool {
	v := l.Var()
	want := lit.TernOf(!l.Sign())
	if sp.val[v] != lit.Unknown {
		if sp.val[v] != want {
			sp.unsat = true
			return false
		}
		return true
	}
	sp.val[v] = want
	sp.stats.UnitsFixed++
	if !sp.frozen[v] {
		sp.stack = append(sp.stack, record{v: v, unit: l})
	}
	return true
}

// propagate drains the unit queue: satisfied clauses die, falsified
// literals are removed, new units are queued. Afterwards no live clause
// mentions an assigned variable, so both of its occurrence lists empty.
func (sp *simplifier) propagate() {
	for len(sp.unitQ) > 0 && !sp.unsat {
		l := sp.unitQ[0]
		sp.unitQ = sp.unitQ[1:]
		v := l.Var()
		if sp.val[v] != lit.Unknown {
			if !sp.assign(l) {
				return
			}
			continue
		}
		if !sp.assign(l) {
			return
		}
		for _, ci := range sp.occ[l] {
			sp.kill(ci)
		}
		sp.occ[l] = sp.occ[l][:0]
		nl := l.Not()
		for _, ci := range sp.occ[nl] {
			if sp.dead[ci] {
				continue
			}
			sp.strengthen(ci, nl)
			if sp.unsat {
				return
			}
		}
		sp.occ[nl] = sp.occ[nl][:0]
	}
}

// subsumePass runs backward subsumption and self-subsuming resolution to
// a local fixpoint, returning whether anything changed. The first sweep
// visits every live clause; later sweeps visit only clauses strengthened
// since their last visit. That is exact because within a pass no clause
// is added and clauses only shrink, so a clause unchanged since its last
// visit has no subsumption or strengthening left to apply.
func (sp *simplifier) subsumePass() bool {
	changedAny := false
	for sweep := 0; ; sweep++ {
		changed := false
		for ci := 0; ci < len(sp.cls); ci++ {
			if sp.dead[ci] || (sweep > 0 && !sp.dirty[ci]) {
				continue
			}
			sp.dirty[ci] = false
			if sp.subsumeWith(ci) {
				changed = true
			}
			if sp.unsat {
				return true
			}
		}
		sp.propagate()
		if sp.unsat {
			return true
		}
		if !changed {
			break
		}
		changedAny = true
	}
	return changedAny
}

// subsumeWith uses clause ci to delete clauses it subsumes and to
// strengthen clauses via self-subsuming resolution (ci with one literal
// flipped subsumes d ⇒ the flipped literal can be removed from d).
func (sp *simplifier) subsumeWith(ci int) bool {
	c := sp.cls[ci]
	changed := false
	// Scan candidates through c's least-occurring literal.
	min := c[0]
	for _, l := range c[1:] {
		if sp.occCnt[l] < sp.occCnt[min] {
			min = l
		}
	}
	for _, di := range sp.occLive(min) {
		if di == ci || sp.dead[ci] {
			continue
		}
		if len(c) <= len(sp.cls[di]) && sp.sig[ci]&^sp.sig[di] == 0 && subsumes(c, sp.cls[di]) {
			sp.kill(di)
			sp.stats.ClausesSubsumed++
			changed = true
		}
	}
	// Self-subsuming resolution: for each literal l of c, find clauses d
	// containing ¬l with (c \ l) ⊆ (d \ ¬l) and remove ¬l from d. The
	// occurrence list of ¬l is compacted as it is scanned, dropping dead
	// clauses and the strengthened ones, which no longer contain ¬l.
	for _, l := range c {
		if sp.dead[ci] {
			break
		}
		restSig := sp.sig[ci] &^ (1 << (uint(l) % 64))
		nl := l.Not()
		list := sp.occ[nl]
		w := 0
		for _, di := range list {
			if sp.dead[di] {
				continue
			}
			if !sp.dead[ci] && len(c) <= len(sp.cls[di]) && restSig&^sp.sig[di] == 0 &&
				subsumesExcept(c, sp.cls[di], l, nl) {
				sp.strengthen(di, nl)
				changed = true
				if sp.unsat {
					return true
				}
				continue
			}
			list[w] = di
			w++
		}
		sp.occ[nl] = list[:w]
	}
	return changed
}

// subsumesExcept reports (c \ {cSkip}) ⊆ (d \ {dSkip}) for normalized
// clauses.
func subsumesExcept(c, d cnf.Clause, cSkip, dSkip lit.Lit) bool {
	i := 0
	for _, l := range d {
		if l == dSkip {
			continue
		}
		for i < len(c) && c[i] == cSkip {
			i++
		}
		if i == len(c) {
			return true
		}
		if c[i] == l {
			i++
		} else if c[i] < l {
			return false
		}
	}
	for i < len(c) && c[i] == cSkip {
		i++
	}
	return i == len(c)
}

// probePass probes both phases of unassigned variables: a literal whose
// propagation yields a conflict is failed, and its negation is added as a
// top-level unit. Probing adds entailed units only, so it is always
// model-preserving (frozen or not).
//
// A literal implied by a non-failing probe since the last database change
// is counted but not propagated: if probing x implied y, what probing y
// propagates is a subset of what probing x propagated, which had no
// conflict, so probing y cannot fail.
func (sp *simplifier) probePass() bool {
	changed := false
	implied := make([]int, len(sp.occ)) // literal -> epoch it was implied in
	epoch := 1
	for v := 0; v < len(sp.val) && sp.stats.Probes < sp.opts.MaxProbes; v++ {
		vv := lit.Var(v)
		if sp.val[v] != lit.Unknown || sp.gone[v] {
			continue
		}
		if sp.occCnt[lit.Pos(vv)] == 0 && sp.occCnt[lit.Neg(vv)] == 0 {
			continue
		}
		for _, l := range [2]lit.Lit{lit.Pos(vv), lit.Neg(vv)} {
			if sp.val[v] != lit.Unknown {
				break
			}
			if sp.occCnt[l.Not()] == 0 {
				// Assuming l can only satisfy clauses, never propagate —
				// probing it cannot fail. (For a pure variable the
				// opposite probe still matters: frozen pure literals
				// cannot be fixed outright, but a failed probe proves
				// the unit is entailed, which is projection-safe.)
				continue
			}
			sp.stats.Probes++
			switch {
			case implied[l] == epoch:
				// Implied by an earlier probe in this epoch: cannot fail.
			case sp.probeLit(l):
				sp.stats.ProbeFailures++
				sp.unitQ = append(sp.unitQ, l.Not())
				sp.propagate()
				changed = true
				if sp.unsat {
					return true
				}
				epoch++
			default:
				for _, p := range sp.probeTrail {
					implied[p] = epoch
				}
			}
			if sp.stats.Probes >= sp.opts.MaxProbes {
				break
			}
		}
	}
	return changed
}

// probeLit simulates top-level BCP of l over the live database using the
// shared assignment array plus an undo trail; it reports whether a
// conflict was reached. probeTrail keeps the literals the probe made true.
func (sp *simplifier) probeLit(l lit.Lit) bool {
	sp.probeTrail = sp.probeTrail[:0]
	sp.probeQ = append(sp.probeQ[:0], l)
	conflict := false
loop:
	for len(sp.probeQ) > 0 {
		p := sp.probeQ[len(sp.probeQ)-1]
		sp.probeQ = sp.probeQ[:len(sp.probeQ)-1]
		v := p.Var()
		want := lit.TernOf(!p.Sign())
		if sp.val[v] != lit.Unknown {
			if sp.val[v] != want {
				conflict = true
				break
			}
			continue
		}
		sp.val[v] = want
		sp.probeTrail = append(sp.probeTrail, p)
		// Clauses containing ¬p lose a literal: find new units/conflicts.
		for _, ci := range sp.occ[p.Not()] {
			if sp.dead[ci] {
				continue
			}
			unknowns := 0
			var last lit.Lit
			for _, q := range sp.cls[ci] {
				switch sp.val[q.Var()].XorSign(q.Sign()) {
				case lit.True:
					unknowns = -1
				case lit.Unknown:
					unknowns++
					last = q
				}
				if unknowns < 0 {
					break
				}
			}
			switch unknowns {
			case -1: // satisfied
			case 0:
				conflict = true
				break loop
			case 1:
				sp.probeQ = append(sp.probeQ, last)
			}
		}
	}
	for _, p := range sp.probeTrail {
		sp.val[p.Var()] = lit.Unknown
	}
	return conflict
}

// bvePass attempts bounded variable elimination on every non-frozen
// candidate, cheapest occurrence counts first. Returns whether any
// variable was eliminated.
func (sp *simplifier) bvePass() bool {
	type cand struct {
		v    lit.Var
		cost int
	}
	var cands []cand
	for v := 0; v < len(sp.val); v++ {
		vv := lit.Var(v)
		if sp.frozen[v] || sp.gone[v] || sp.val[v] != lit.Unknown {
			continue
		}
		cost := sp.occCnt[lit.Pos(vv)] + sp.occCnt[lit.Neg(vv)]
		if cost == 0 || cost > sp.opts.MaxOccur {
			continue
		}
		cands = append(cands, cand{v: vv, cost: cost})
	}
	slices.SortFunc(cands, func(a, b cand) int {
		return cmp.Or(cmp.Compare(a.cost, b.cost), cmp.Compare(a.v, b.v))
	})
	changed := false
	for _, cd := range cands {
		if sp.unsat {
			return true
		}
		if sp.gone[cd.v] || sp.val[cd.v] != lit.Unknown {
			continue // removed by a unit cascade from an earlier elimination
		}
		if sp.tryEliminate(cd.v) {
			changed = true
		}
	}
	return changed
}

// tryEliminate resolves v away when the resolvent count stays within the
// growth budget. Resolvents are built in reused scratch and copied into
// the database only on commit. The saved positive/negative occurrence
// lists go onto the elimination stack for witness reconstruction.
func (sp *simplifier) tryEliminate(v lit.Var) bool {
	pos := sp.occLive(lit.Pos(v))
	neg := sp.occLive(lit.Neg(v))
	budget := len(pos) + len(neg) + sp.opts.MaxGrowth
	if len(pos)*len(neg) > 4*budget+16 {
		// Even counting the resolvents would be quadratic blowup; skip.
		return false
	}
	sp.resLits = sp.resLits[:0]
	sp.resEnd = sp.resEnd[:0]
	for _, pi := range pos {
		for _, ni := range neg {
			if !sp.resolve(sp.cls[pi], sp.cls[ni], v) {
				continue
			}
			if len(sp.resEnd) > budget {
				return false
			}
		}
	}

	// Commit: save the occurrences, retire them, add the resolvents.
	saved := make([]cnf.Clause, 0, len(pos)+len(neg))
	for _, ci := range pos {
		saved = append(saved, sp.cls[ci])
		sp.kill(ci)
	}
	for _, ci := range neg {
		saved = append(saved, sp.cls[ci])
		sp.kill(ci)
	}
	sp.gone[v] = true
	sp.stack = append(sp.stack, record{v: v, clauses: saved})
	sp.stats.VarsEliminated++

	start := 0
	for _, end := range sp.resEnd {
		sp.addResolvent(sp.resLits[start:end])
		if sp.unsat {
			return true
		}
		start = end
	}
	sp.propagate()
	return true
}

// resolve appends the resolvent of p (containing v) and n (containing ¬v)
// on v to the resolvent scratch, reporting false (and appending nothing)
// for a tautology. Inputs are normalized, so a sorted merge both builds
// the resolvent and detects clashes.
func (sp *simplifier) resolve(p, n cnf.Clause, v lit.Var) bool {
	start := len(sp.resLits)
	out := sp.resLits
	i, j := 0, 0
	for i < len(p) || j < len(n) {
		var l lit.Lit
		switch {
		case i == len(p):
			l = n[j]
			j++
		case j == len(n):
			l = p[i]
			i++
		case p[i] <= n[j]:
			l = p[i]
			i++
		default:
			l = n[j]
			j++
		}
		if l.Var() == v {
			continue
		}
		if k := len(out); k > start {
			if out[k-1] == l {
				continue
			}
			if out[k-1] == l.Not() {
				return false
			}
		}
		out = append(out, l)
	}
	sp.resLits = out
	sp.resEnd = append(sp.resEnd, len(out))
	return true
}

// addResolvent inserts a resolvent (held in scratch), dropping it when an
// existing clause subsumes it.
func (sp *simplifier) addResolvent(r cnf.Clause) {
	switch len(r) {
	case 0:
		sp.unsat = true
		return
	case 1:
		sp.unitQ = append(sp.unitQ, r[0])
		return
	}
	rs := signature(r)
	min := r[0]
	for _, l := range r[1:] {
		if sp.occCnt[l] < sp.occCnt[min] {
			min = l
		}
	}
	for _, ci := range sp.occLive(min) {
		c := sp.cls[ci]
		if len(c) <= len(r) && sp.sig[ci]&^rs == 0 && subsumes(c, r) {
			sp.stats.ClausesSubsumed++
			return
		}
	}
	sp.addClause(sp.store(r))
	sp.stats.ResolventsAdded++
}

// rebuild writes the simplified database back into f: live clauses plus
// one unit per fixed frozen variable. NumVars is preserved. On Unsat the
// formula becomes a single empty clause.
func (sp *simplifier) rebuild(f *cnf.Formula) {
	if sp.unsat {
		f.Clauses = []cnf.Clause{{}}
		return
	}
	out := make([]cnf.Clause, 0, len(sp.cls))
	for v, t := range sp.val {
		if t != lit.Unknown && sp.frozen[v] {
			out = append(out, cnf.Clause{lit.New(lit.Var(v), t == lit.False)})
		}
	}
	for ci, c := range sp.cls {
		if !sp.dead[ci] {
			out = append(out, c[:len(c):len(c)])
		}
	}
	f.Clauses = out
}
