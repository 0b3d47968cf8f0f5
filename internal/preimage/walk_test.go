package preimage

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"allsatpre/internal/bdd"
	"allsatpre/internal/budget"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	"allsatpre/internal/gen"
	"allsatpre/internal/lit"
	"allsatpre/internal/sat"
	"allsatpre/internal/stats"
	"allsatpre/internal/trans"
)

// TestWalkAbortContract runs every layer source — fresh success, fresh
// lifting and session, backward and forward — under no budget, a cube
// cap, a decision cap and an expired deadline, and checks the Aborted
// contract on the walk itself:
//   - every source honors the one-cube cap: the walk is truncated;
//   - an aborted walk claims no Fixpoint, names its reason, and has
//     ended: a further Step solves nothing;
//   - a complete walk ends at a fixpoint;
//   - every frontier of an aborted walk is a subset of the complete
//     walk's frontier at the same depth;
//   - complete walks give the same frontiers and counts from every
//     source.
func TestWalkAbortContract(t *testing.T) {
	sources := []struct {
		name string
		opts Options
	}{
		{"fresh-success", Options{}},
		{"fresh-lifting", Options{Engine: EngineLifting}},
		{"session", Options{Incremental: true}},
	}
	budgets := []struct {
		name string
		b    budget.Budget
	}{
		{"none", budget.Budget{}},
		{"cubes", budget.Budget{MaxCubes: 1}},
		{"decisions", budget.Budget{MaxDecisions: 40}},
		{"deadline", expiredBudget()},
	}
	suite := []struct {
		name  string
		c     *circuit.Circuit
		start string
	}{
		{"counter6", gen.Counter(6, true, false), "XXXX01"},
		{"slike2", gen.SLike(gen.SLikeParams{Seed: 2, Inputs: 8, Latches: 8, Gates: 120}), "X1XX0XXX"},
	}
	aborts := map[string]int{}
	for _, tc := range suite {
		start := trans.TargetFromPatterns(len(tc.c.Latches), tc.start)
		for _, forward := range []bool{false, true} {
			var ref *ReachResult // the first complete walk
			var partial []*ReachResult
			var partialLabels []string
			for _, bud := range budgets {
				for _, src := range sources {
					label := fmt.Sprintf("%s/forward=%v/%s/%s", tc.name, forward, src.name, bud.name)
					opts := src.opts
					opts.Budget = bud.b.Materialize()
					w, err := newWalk(tc.c, start, forward, opts)
					if err != nil {
						t.Fatal(err)
					}
					if err := w.run(0); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					steps, layers := w.Steps, w.Layers()
					if err := w.Step(); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if w.Steps != steps || w.Layers() != layers {
						t.Fatalf("%s: a Step after the walk ended solved again", label)
					}
					res := w.result()
					w.close()
					if bud.b.MaxCubes > 0 && !res.Aborted {
						t.Fatalf("%s: the walk ignored the cube cap", label)
					}
					switch {
					case res.Aborted:
						aborts[bud.name]++
						if res.Fixpoint {
							t.Fatalf("%s: aborted walk claimed a fixpoint", label)
						}
						if res.AbortReason == budget.None {
							t.Fatalf("%s: aborted walk names no reason", label)
						}
						partial = append(partial, res)
						partialLabels = append(partialLabels, label)
					case !res.Fixpoint:
						t.Fatalf("%s: complete walk stopped short of a fixpoint", label)
					case ref == nil:
						ref = res
					default:
						compareReach(t, label, res, ref)
					}
				}
			}
			if ref == nil {
				t.Fatalf("%s/forward=%v: no complete walk", tc.name, forward)
			}
			m := bdd.NewOrdered(ref.StateSpace.Vars())
			for i, res := range partial {
				if len(res.Frontiers) > len(ref.Frontiers) {
					t.Fatalf("%s: %d layers, the complete walk has %d",
						partialLabels[i], len(res.Frontiers), len(ref.Frontiers))
				}
				for k, f := range res.Frontiers {
					if m.Diff(m.FromCover(f), m.FromCover(ref.Frontiers[k])) != bdd.False {
						t.Fatalf("%s: frontier %d is not a subset of the complete walk's", partialLabels[i], k)
					}
				}
			}
		}
	}
	for _, bud := range budgets[1:] {
		if aborts[bud.name] == 0 {
			t.Errorf("budget %s truncated no walk; the case is vacuous", bud.name)
		}
	}
}

// sharedGateSuite holds SLike circuits in which latches share a
// next-state gate (two such latches in the first, one in the second), so
// a forward instance gives a latch a variable of its own
// (trans.NewForwardBaseInstance). Each target's backward walk takes two
// layers to a fixpoint of 14 and 144 states.
func sharedGateSuite() []suiteCircuit {
	return []suiteCircuit{
		{gen.NamedCircuit{Name: "slike2-shared2", Circuit: gen.SLike(gen.SLikeParams{Seed: 2, Inputs: 4, Latches: 6, Gates: 60})},
			trans.TargetFromPatterns(6, "XXX100")},
		{gen.NamedCircuit{Name: "slike4-shared1", Circuit: gen.SLike(gen.SLikeParams{Seed: 4, Inputs: 6, Latches: 8, Gates: 120})},
			trans.TargetFromPatterns(8, "X0XX00X0")},
	}
}

// recordingSource remembers the frontier each layer was solved from and
// the layer's state set, before the walk diffs it against visited.
type recordingSource struct {
	layerSource
	frontiers []*cube.Cover
	sets      []bdd.Ref
}

func (r *recordingSource) layer(frontier *cube.Cover, reg *stats.Registry) (layer, error) {
	l, err := r.layerSource.layer(frontier, reg)
	r.frontiers = append(r.frontiers, frontier)
	r.sets = append(r.sets, l.set)
	return l, err
}

// TestWalkSuccessMatchesBDD pins the success engine's walks, whose
// layers search over the latches alone, to the BDD engine's walks on
// the determinism suite, on the fresh and the session layer source,
// backward (Reach, CheckReachable) and forward (ForwardReach): every
// layer's count and frontier cover, the fixpoint and the verdict must
// be the BDD walk's. Each fresh layer hands its merged BDD to the walk
// without a cover, so its state set must also equal the cover Compute
// (or Image) returns for the same frontier. On the shared-gate suite,
// whose latches share next-state gates, every engine's forward walk,
// fresh and on a session, must be the BDD walk too.
func TestWalkSuccessMatchesBDD(t *testing.T) {
	for _, nc := range sharedGateSuite() {
		c := nc.Circuit
		zero := trans.TargetFromPatterns(len(c.Latches), strings.Repeat("0", len(c.Latches)))
		ref, err := walkResult(c, zero, true, 0, Options{Engine: EngineBDD})
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range allEngines {
			for _, incremental := range []bool{false, true} {
				opts := Options{Engine: eng, Incremental: incremental}
				if incremental && !useIncremental(opts) {
					continue
				}
				got, err := walkResult(c, zero, true, 0, opts)
				if err != nil {
					t.Fatal(err)
				}
				compareReach(t, fmt.Sprintf("%s/forward/%v/incremental=%v", nc.Name, eng, incremental), got, ref)
			}
		}
	}

	for _, nc := range determinismSuite() {
		c := nc.Circuit
		zero := trans.TargetFromPatterns(len(c.Latches), strings.Repeat("0", len(c.Latches)))
		for _, forward := range []bool{false, true} {
			start, step := nc.Target, Compute
			if forward {
				start, step = zero, Image
			}
			ref, err := walkResult(c, start, forward, 0, Options{Engine: EngineBDD})
			if err != nil {
				t.Fatal(err)
			}
			for _, incremental := range []bool{false, true} {
				label := fmt.Sprintf("%s/forward=%v/incremental=%v", nc.Name, forward, incremental)
				w, err := newWalk(c, start, forward, Options{Incremental: incremental})
				if err != nil {
					t.Fatal(err)
				}
				rec := &recordingSource{layerSource: w.src}
				w.src = rec
				if err := w.run(0); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				compareReach(t, label, w.result(), ref)
				for k, frontier := range rec.frontiers {
					if incremental {
						break
					}
					want, err := step(c, frontier, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if got := rec.sets[k]; got != w.man.FromCover(want.States) || w.man.SatCount(got).Cmp(want.Count) != 0 {
						t.Fatalf("%s: layer %d differs from the one-shot run on its frontier", label, k+1)
					}
				}
				w.close()
			}
		}
		if r, _, err := compute(c, nc.Target, Options{}, bdd.NewOrdered(StateSpace(c).Vars())); err != nil || r.States != nil {
			t.Fatalf("%s: a fresh backward layer built a state cover (err %v)", nc.Name, err)
		}

		want, err := CheckReachable(c, zero, nc.Target, 0, Options{Engine: EngineBDD})
		if err != nil {
			t.Fatal(err)
		}
		for _, incremental := range []bool{false, true} {
			label := fmt.Sprintf("%s/check/incremental=%v", nc.Name, incremental)
			got, err := CheckReachable(c, zero, nc.Target, 0, Options{Incremental: incremental})
			if err != nil {
				t.Fatal(err)
			}
			if got.Reachable != want.Reachable || got.Complete != want.Complete || got.Steps != want.Steps || got.Aborted {
				t.Fatalf("%s: verdict %+v, BDD engine %+v", label, got, want)
			}
			if got.Reachable {
				validateTrace(t, c, zero, nc.Target, got.Trace)
			} else if got.Invariant.String() != want.Invariant.String() {
				t.Fatalf("%s: invariant\n%v\nBDD engine\n%v", label, got.Invariant, want.Invariant)
			}
		}
	}
}

// TestFixpointCertificate checks a complete walk's visited set with one
// SAT call and a checked DRUP proof. Backward, the set V of states that
// reach the start set is closed under predecessors, so
// T ∧ V(s′) ∧ ¬V(s) is UNSAT; forward, the set R reached from the start
// set is closed under successors, so T ∧ R(s) ∧ ¬R(s′) is UNSAT. ¬V is
// one clause per cube of the walk's cover. Dropping the clause of a
// cube that holds a state no other cube covers, outside the start set,
// must make the formula SAT: that state is one step from the set, so a
// walk that missed it cannot pass.
func TestFixpointCertificate(t *testing.T) {
	for _, nc := range sharedGateSuite() {
		c := nc.Circuit
		nL := len(c.Latches)
		// One next-state variable per latch, so ¬V(s′) has one literal
		// per fixed position.
		inst, err := trans.NewForwardBaseInstance(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, forward := range []bool{false, true} {
			start, in, out := nc.Target, inst.NextVars, inst.StateVars
			if forward {
				start = trans.TargetFromPatterns(nL, strings.Repeat("0", nL))
				in, out = out, in
			}
			for _, incremental := range []bool{false, true} {
				label := fmt.Sprintf("%s/forward=%v/incremental=%v", nc.Name, forward, incremental)
				res, err := walkResult(c, start, forward, 0, Options{Incremental: incremental})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Fixpoint {
					t.Fatalf("%s: the walk reached no fixpoint", label)
				}
				// certify solves T ∧ V(in) ∧ ¬V(out), ¬V over cubes only.
				certify := func(cubes []cube.Cube) (*cnf.Formula, *sat.Solver, sat.Status, *bytes.Buffer) {
					f := inst.F.Clone()
					trans.EncodeCover(res.All, in, false, f.NewVar, f.AddClause)
					for _, cb := range cubes {
						var block cnf.Clause
						for i, v := range cb {
							if v != lit.Unknown {
								block = append(block, lit.New(out[i], v == lit.True))
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
				cubes := res.All.Cubes()
				f, _, status, proof := certify(cubes)
				if status != sat.Unsat {
					t.Fatalf("%s: the fixpoint certificate is %v, want UNSAT", label, status)
				}
				if err := sat.CheckDRUP(f, proof); err != nil {
					t.Fatalf("%s: the fixpoint proof does not check: %v", label, err)
				}

				m := bdd.NewOrdered(res.StateSpace.Vars())
				startSet, drop := m.FromCover(canonicalize(res.StateSpace, start)), -1
				for i, cb := range cubes {
					rest := cube.NewCover(res.StateSpace)
					for j, other := range cubes {
						if j != i {
							rest.Add(other)
						}
					}
					own := m.Diff(m.FromCube(res.StateSpace, cb), m.Or(m.FromCover(rest), startSet))
					if own != bdd.False {
						drop = i
						break
					}
				}
				if drop < 0 {
					t.Fatalf("%s: no cube holds a state of its own outside the start set", label)
				}
				dropped := cubes[drop]
				_, s, status, _ := certify(slices.Delete(slices.Clone(cubes), drop, drop+1))
				if status != sat.Sat {
					t.Fatalf("%s: with cube %s dropped the certificate is %v, want SAT", label, dropped, status)
				}
				model, st := s.Model(), make([]bool, nL)
				for i, v := range out {
					st[i] = model[v]
				}
				if !dropped.ContainsMinterm(st) {
					t.Fatalf("%s: the model's state is outside the dropped cube %s", label, dropped)
				}
			}
		}
	}
}
