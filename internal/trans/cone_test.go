package trans_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"allsatpre/internal/bdd"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cnf"
	"allsatpre/internal/core"
	"allsatpre/internal/cube"
	"allsatpre/internal/gen"
	"allsatpre/internal/lit"
	"allsatpre/internal/preimage"
	"allsatpre/internal/sat"
	"allsatpre/internal/trans"
)

// coneCircuits returns s27, the generator suite and 32 seeded SLike
// circuits of mixed shapes.
func coneCircuits(t *testing.T) []gen.NamedCircuit {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "s27.bench"))
	if err != nil {
		t.Fatal(err)
	}
	s27, err := circuit.ParseBenchString("s27", string(data))
	if err != nil {
		t.Fatal(err)
	}
	out := append([]gen.NamedCircuit{{Name: "s27", Circuit: s27}}, gen.Suite()...)
	for k := 0; k < 32; k++ {
		p := gen.SLikeParams{Seed: 500 + int64(k), Inputs: 3 + k%4, Latches: 3 + k%5, Gates: 20 + 10*(k%8)}
		out = append(out, gen.NamedCircuit{Name: fmt.Sprintf("slike%d", k), Circuit: gen.SLike(p)})
	}
	return out
}

// randomCover draws a cover of 1..3 random "01X" cubes over n latches.
func randomCover(rng *rand.Rand, n int) *cube.Cover {
	var pats []string
	for k := 1 + rng.Intn(3); k > 0; k-- {
		b := make([]byte, n)
		for i := range b {
			b[i] = "01XX"[rng.Intn(4)]
		}
		pats = append(pats, string(b))
	}
	return trans.TargetFromPatterns(n, pats...)
}

// fullNetlist rebuilds inst over the whole netlist: the encoding's full
// Tseitin CNF followed by inst's own constraint clauses (everything after
// the cone), over the same variable ids. It also checks inst starts with
// exactly the cone's clauses.
func fullNetlist(t *testing.T, inst *trans.Instance) *cnf.Formula {
	t.Helper()
	enc := inst.Enc
	cone := enc.NextStateCone()
	if inst.F.NumVars < enc.F.NumVars || len(inst.F.Clauses) < len(cone) {
		t.Fatalf("instance is smaller than its cone")
	}
	for j, cl := range cone {
		if fmt.Sprint(inst.F.Clauses[j]) != fmt.Sprint(cl) {
			t.Fatalf("clause %d is %v, cone clause %v", j, inst.F.Clauses[j], cl)
		}
	}
	f := enc.F.Clone()
	f.NumVars = inst.F.NumVars
	for _, cl := range inst.F.Clauses[len(cone):] {
		f.AddClause(cl.Clone())
	}
	return f
}

// checkOffConeVars checks that no variable of a logic gate outside the
// combinational fanin of the latch D signals occurs in inst.F, and that
// every gate inside it kept all of its clauses. Inputs and latches are
// the free (s, x) variables and may occur anywhere.
func checkOffConeVars(t *testing.T, name string, c *circuit.Circuit, inst *trans.Instance) {
	t.Helper()
	inCone := make([]bool, c.NumGates())
	var walk func(g int)
	walk = func(g int) {
		if inCone[g] {
			return
		}
		inCone[g] = true
		if t := c.Gates[g].Type; t != circuit.Input && t != circuit.DFF {
			for _, f := range c.Gates[g].Fanins {
				walk(f)
			}
		}
	}
	for _, l := range c.Latches {
		walk(c.Gates[l].Fanins[0])
	}
	enc := inst.Enc
	want := 0
	for g := range c.Gates {
		if inCone[g] {
			want += len(enc.GateClauses(g))
		}
	}
	if got := len(enc.NextStateCone()); got != want {
		t.Errorf("%s: cone has %d clauses, its gates have %d", name, got, want)
	}
	for _, cl := range inst.F.Clauses {
		for _, l := range cl {
			if int(l.Var()) >= len(enc.GateOf) {
				continue // a selector
			}
			g := enc.GateOf[l.Var()]
			if typ := c.Gates[g].Type; !inCone[g] && typ != circuit.Input && typ != circuit.DFF {
				t.Fatalf("%s: clause %v mentions off-cone gate %s", name, cl, c.Gates[g].Name)
			}
		}
	}
}

// sameProjection checks that f and g have the same models projected on
// space: by the success-driven engine's ISOP cover and count (canonical
// for the set), and exhaustively point by point with a SAT solver when
// the space has at most 12 variables.
func sameProjection(t *testing.T, name string, f, g *cnf.Formula, space *cube.Space) {
	t.Helper()
	rf := core.EnumerateToResult(f, space, core.DefaultOptions())
	rg := core.EnumerateToResult(g, space, core.DefaultOptions())
	if rf.Count.Cmp(rg.Count) != 0 || fmt.Sprint(rf.Cover.Cubes()) != fmt.Sprint(rg.Cover.Cubes()) {
		t.Fatalf("%s: cone projection (count %v) differs from the full netlist's (count %v)", name, rf.Count, rg.Count)
	}
	if space.Size() > 12 {
		return
	}
	sf := sat.FromFormula(f, sat.DefaultOptions())
	sg := sat.FromFormula(g, sat.DefaultOptions())
	vars := space.Vars()
	assume := make([]lit.Lit, len(vars))
	for p := 0; p < 1<<len(vars); p++ {
		for i, v := range vars {
			assume[i] = lit.New(v, p>>i&1 == 0)
		}
		if a, b := sf.Solve(assume...), sg.Solve(assume...); a != b {
			t.Fatalf("%s: point %b: cone %v, full netlist %v", name, p, a, b)
		}
	}
}

// TestConeInstanceExact checks that preimage and image instances, which
// carry only the next-state cone, have exactly the (s, x) projection of
// the same instances built over the whole netlist.
func TestConeInstanceExact(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, nc := range coneCircuits(t) {
		c := nc.Circuit
		n := len(c.Latches)
		pre, err := trans.NewInstance(c, randomCover(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		img, err := trans.NewImageInstance(c, randomCover(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []struct {
			kind string
			inst *trans.Instance
		}{{"preimage", pre}, {"image", img}} {
			name := nc.Name + " " + k.kind
			checkOffConeVars(t, name, c, k.inst)
			sameProjection(t, name, k.inst.F, fullNetlist(t, k.inst), k.inst.FullSpace)
		}
	}
}

// TestConeReachFrontiersMatchBDD checks that the incremental
// sessions, which keep one cone CNF across steps, and the fresh
// per-step instances reach the same frontiers as the CNF-free BDD engine.
func TestConeReachFrontiersMatchBDD(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, nc := range coneCircuits(t)[:12] {
		c := nc.Circuit
		target := randomCover(rng, len(c.Latches))
		ref, err := preimage.Reach(c, target, 6, preimage.Options{Engine: preimage.EngineBDD})
		if err != nil {
			t.Fatal(err)
		}
		m := bdd.NewOrdered(ref.StateSpace.Vars())
		for _, incremental := range []bool{true, false} {
			got, err := preimage.Reach(c, target, 6, preimage.Options{Incremental: incremental})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Frontiers) != len(ref.Frontiers) || got.Fixpoint != ref.Fixpoint {
				t.Fatalf("%s incremental=%v: %d frontiers (fixpoint %v), BDD engine %d (fixpoint %v)",
					nc.Name, incremental, len(got.Frontiers), got.Fixpoint, len(ref.Frontiers), ref.Fixpoint)
			}
			for k := range ref.Frontiers {
				if got.FrontierCounts[k].Cmp(ref.FrontierCounts[k]) != 0 ||
					m.FromCover(got.Frontiers[k]) != m.FromCover(ref.Frontiers[k]) {
					t.Fatalf("%s incremental=%v: frontier %d differs from the BDD engine's", nc.Name, incremental, k)
				}
			}
		}
	}
}
