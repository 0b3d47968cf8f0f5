package core

import (
	"fmt"
	"strings"
	"testing"

	"allsatpre/internal/cube"
	"allsatpre/internal/gen"
	"allsatpre/internal/lit"
	"allsatpre/internal/partition"
	"allsatpre/internal/sat"
	"allsatpre/internal/trans"
)

// With EnableLearning off, unit propagation over the original clauses
// has a single fixpoint, so the search — decisions, conflicts, memo
// lookups and hits, solutions — is a function of the formula, the
// projection order and the memo alone, never of the propagation kernel
// underneath. The pins below were recorded on the enumerator's own BCP
// kernel before it moved onto internal/sat; any difference means the
// kernel swap changed the search itself.

// pinSuite is the circuit set of the preimage determinism suite.
func pinSuite() []gen.NamedCircuit {
	return []gen.NamedCircuit{
		{Name: "counter8", Circuit: gen.Counter(8, true, false)},
		{Name: "shift8", Circuit: gen.ShiftRegister(8)},
		{Name: "lfsr8", Circuit: gen.LFSR(8, 0, 3, 4, 5)},
		{Name: "gray6", Circuit: gen.GrayCounter(6)},
		{Name: "traffic", Circuit: gen.TrafficLight()},
		{Name: "slike1", Circuit: gen.SLike(gen.SLikeParams{Seed: 1, Inputs: 6, Latches: 6, Gates: 60})},
		{Name: "slike2", Circuit: gen.SLike(gen.SLikeParams{Seed: 2, Inputs: 8, Latches: 8, Gates: 120})},
	}
}

// pinPattern is the determinism suite's wide target (two fixed bits),
// or a one-bit variant selected by bit.
func pinPattern(nL, bit int) string {
	pat := []byte(strings.Repeat("X", nL))
	switch bit {
	case -1:
		pat[1] = '1'
		if nL > 4 {
			pat[4] = '0'
		}
	default:
		pat[bit%nL] = '0'
	}
	return string(pat)
}

// learningOffPins are the counters of TestLearningOffPin, one line per
// circuit and case.
var learningOffPins = []string{
	"counter8/memo=true: dec=26 confl=0 look=23 hit=10 sol=4 count=128",
	"counter8/memo=false: dec=254 confl=0 look=0 hit=0 sol=128 count=128",
	"counter8/split: unsat-assumptions:0/0/0/0/0/0 sat:8/0/7/3/2/16 sat:10/0/9/4/2/32 sat:0/0/1/1/0/16 unsat-assumptions:0/0/0/0/0/0 sat:0/0/1/1/0/16 sat:0/0/1/1/0/32 sat:0/0/1/1/0/16",
	"counter8/retarget: sat:26/0/23/10/4/128/inv=0 sat:24/0/23/11/2/256/inv=0 sat:24/0/23/11/2/256/inv=0 sat:0/0/1/1/0/128/inv=0",
	"shift8/memo=true: dec=10 confl=0 look=9 hit=4 sol=2 count=128",
	"shift8/memo=false: dec=62 confl=0 look=0 hit=0 sol=32 count=128",
	"shift8/split: unsat-assumptions:0/0/0/0/0/0 sat:6/0/5/2/2/32 unsat-assumptions:0/0/0/0/0/0 sat:0/0/1/1/0/32 unsat-assumptions:0/0/0/0/0/0 sat:0/0/1/1/0/32 unsat-assumptions:0/0/0/0/0/0 sat:0/0/1/1/0/32",
	"shift8/retarget: sat:10/0/9/4/2/128/inv=0 sat:8/0/9/5/0/256/inv=0 sat:2/0/3/2/0/256/inv=0 sat:0/0/1/1/0/128/inv=0",
	"lfsr8/memo=true: dec=12 confl=0 look=11 hit=5 sol=2 count=64",
	"lfsr8/memo=false: dec=62 confl=0 look=0 hit=0 sol=32 count=64",
	"lfsr8/split: unsat-assumptions:0/0/0/0/0/0 sat:8/0/7/3/2/16 unsat-assumptions:0/0/0/0/0/0 sat:0/0/1/1/0/16 unsat-assumptions:0/0/0/0/0/0 sat:0/0/1/1/0/16 unsat-assumptions:0/0/0/0/0/0 sat:0/0/1/1/0/16",
	"lfsr8/retarget: sat:12/0/11/5/2/64/inv=0 sat:18/0/19/10/0/128/inv=0 sat:12/0/13/7/0/128/inv=0 sat:0/0/1/1/0/64/inv=0",
	"gray6/memo=true: dec=126 confl=48 look=63 hit=0 sol=16 count=16",
	"gray6/memo=false: dec=126 confl=48 look=0 hit=0 sol=16 count=16",
	"gray6/split: sat:14/8/7/0/0/0 sat:14/6/7/0/2/2 sat:14/4/7/0/4/4 sat:14/6/7/0/2/2 sat:14/8/7/0/0/0 sat:14/6/7/0/2/2 sat:14/4/7/0/4/4 sat:14/6/7/0/2/2",
	"gray6/retarget: sat:126/48/63/0/16/16/inv=0 sat:126/32/63/0/32/32/inv=0 sat:126/32/63/0/32/32/inv=0 sat:0/0/1/1/0/16/inv=0",
	"traffic/memo=true: dec=36 confl=3 look=22 hit=4 sol=12 count=32",
	"traffic/memo=false: dec=54 confl=4 look=0 hit=0 sol=24 count=32",
	"traffic/split: unsat-assumptions:0/0/0/0/0/0 sat:2/0/1/0/2/3 sat:8/1/4/0/4/5 sat:8/1/5/1/3/8 unsat-assumptions:0/0/0/0/0/0 sat:0/0/1/1/0/3 sat:0/0/1/1/0/5 sat:8/1/5/1/3/8",
	"traffic/retarget: sat:36/3/22/4/12/32/inv=0 sat:32/0/26/10/7/64/inv=0 sat:18/0/16/7/3/64/inv=0 sat:0/0/1/1/0/32/inv=0",
	"slike1/memo=true: dec=0 confl=0 look=0 hit=0 sol=0 count=0",
	"slike1/memo=false: dec=0 confl=0 look=0 hit=0 sol=0 count=0",
	"slike1/split: unsat-global:0/0/0/0/0/0 unsat-global:0/0/0/0/0/0 unsat-global:0/0/0/0/0/0 unsat-global:0/0/0/0/0/0 unsat-global:0/0/0/0/0/0 unsat-global:0/0/0/0/0/0 unsat-global:0/0/0/0/0/0 unsat-global:0/0/0/0/0/0",
	"slike1/retarget: unsat-assumptions:0/1/0/0/0/0/inv=0 unsat-assumptions:0/1/0/0/0/0/inv=0 sat:144/0/109/37/36/2176/inv=0 unsat-assumptions:0/1/0/0/0/0/inv=0",
	"slike2/memo=true: dec=316 confl=10 look=265 hit=107 sol=42 count=29696",
	"slike2/memo=false: dec=59154 confl=3338 look=0 hit=0 sol=26240 count=29696",
	"slike2/split: sat:102/4/83/32/16/3584 sat:102/4/83/32/16/3584 sat:0/0/1/1/0/3584 sat:0/0/1/1/0/3584 sat:54/0/49/22/6/4096 sat:48/2/43/19/4/3584 sat:0/0/1/1/0/4096 sat:0/0/1/1/0/3584",
	"slike2/retarget: sat:316/10/265/107/42/29696/inv=0 sat:184/29/156/64/0/0/inv=0 sat:32/2/25/9/6/2560/inv=0 sat:0/0/1/1/0/29696/inv=0",
}

// pinSpace encodes the preimage of target and its (state, input)
// projection space, in the default state-first order.
func pinSpace(inst *trans.Instance) *cube.Space {
	vars, names := inst.OrderedProjection(false, false)
	return cube.NewNamedSpace(vars, names)
}

// TestLearningOffPin runs the learning-off enumerator over the
// determinism-suite circuits: one-shot with the memo on and off,
// EnumerateUnder over a fixed eight-way guiding-path split, and one
// retarget sequence on a persistent enumerator (a repeated target last,
// so memo retention across retirement shows as a hit). Statuses, counters
// and solution counts must match the recorded pins exactly.
func TestLearningOffPin(t *testing.T) {
	var lines []string
	for _, nc := range pinSuite() {
		nL := len(nc.Circuit.Latches)
		target := trans.TargetFromPatterns(nL, pinPattern(nL, -1))
		for _, memo := range []bool{true, false} {
			inst, err := trans.NewInstance(nc.Circuit, target)
			if err != nil {
				t.Fatal(err)
			}
			r := New(nil, inst.F, pinSpace(inst), Options{EnableMemo: memo}).Enumerate()
			s := r.Stats
			lines = append(lines, fmt.Sprintf("%s/memo=%v: dec=%d confl=%d look=%d hit=%d sol=%d count=%v",
				nc.Name, memo, s.Decisions, s.Conflicts, s.CacheLookups, s.CacheHits, s.Solutions,
				r.Manager.SatCount(r.Set)))
		}
		inst, err := trans.NewInstance(nc.Circuit, target)
		if err != nil {
			t.Fatal(err)
		}
		space := pinSpace(inst)
		e := New(nil, inst.F, space, Options{EnableMemo: true})
		var b strings.Builder
		for _, sc := range partition.Split(space, 3) {
			sub := e.EnumerateUnder(sc.Assumptions(space, nil), 0)
			s := sub.Stats
			fmt.Fprintf(&b, " %v:%d/%d/%d/%d/%d/%v", sub.Status, s.Decisions, s.Conflicts,
				s.CacheLookups, s.CacheHits, s.Solutions, e.Manager().SatCount(sub.Set))
		}
		lines = append(lines, nc.Name+"/split:"+b.String())

		base, err := trans.NewBaseInstance(nc.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		e = New(nil, base.F, pinSpace(base), Options{EnableMemo: true})
		b.Reset()
		for _, bit := range []int{-1, 0, 2, -1} {
			st, err := base.Retarget(trans.TargetFromPatterns(nL, pinPattern(nL, bit)), e.NewVar)
			if err != nil {
				t.Fatal(err)
			}
			e.BeginGroup()
			for _, cl := range st.Clauses {
				e.AddGroupClause(cl...)
			}
			sub := e.EnumerateUnder([]lit.Lit{st.Act}, 0)
			s := sub.Stats
			rs := e.RetireGroup(st.Act.Not(), st.Vars)
			fmt.Fprintf(&b, " %v:%d/%d/%d/%d/%d/%v/inv=%d", sub.Status, s.Decisions, s.Conflicts,
				s.CacheLookups, s.CacheHits, s.Solutions, e.Manager().SatCount(sub.Set), rs.MemoInvalidated)
		}
		lines = append(lines, nc.Name+"/retarget:"+b.String())
	}
	if len(lines) != len(learningOffPins) {
		t.Fatalf("%d cases, %d pins", len(lines), len(learningOffPins))
	}
	for i, got := range lines {
		if got != learningOffPins[i] {
			t.Errorf("pin %d changed:\n got  %s\n want %s", i, got, learningOffPins[i])
		}
	}
}

// TestResetSolverMatchesFresh runs an enumerator on a solver that first
// served another formula and was then Reset — the warm-pool path — and
// checks that its solution set and every search counter equal a fresh
// enumerator's, with learning on and off.
func TestResetSolverMatchesFresh(t *testing.T) {
	suite := pinSuite()
	for i, nc := range suite {
		prev := suite[(i+len(suite)-1)%len(suite)].Circuit
		for _, opts := range []Options{DefaultOptions(), {EnableMemo: true}} {
			target := trans.TargetFromPatterns(len(prev.Latches), pinPattern(len(prev.Latches), -1))
			other, err := trans.NewInstance(prev, target)
			if err != nil {
				t.Fatal(err)
			}
			s := sat.New(sat.Options{})
			New(s, other.F, pinSpace(other), opts).Enumerate()
			s.Reset(sat.Options{})

			nL := len(nc.Circuit.Latches)
			target = trans.TargetFromPatterns(nL, pinPattern(nL, -1))
			inst, err := trans.NewInstance(nc.Circuit, target)
			if err != nil {
				t.Fatal(err)
			}
			space := pinSpace(inst)
			warm := New(s, inst.F.Clone(), space, opts).Enumerate()
			fresh := New(nil, inst.F, space, opts).Enumerate()
			if got, want := warm.Manager.ISOP(warm.Set, space).SortedKeys(),
				fresh.Manager.ISOP(fresh.Set, space).SortedKeys(); strings.Join(got, "|") != strings.Join(want, "|") {
				t.Fatalf("%s/%+v: reset solver's cover %v, fresh %v", nc.Name, opts, got, want)
			}
			if warm.Stats != fresh.Stats {
				t.Fatalf("%s/%+v: reset solver's counters %+v, fresh %+v", nc.Name, opts, warm.Stats, fresh.Stats)
			}
		}
	}
}
