package preimage

import (
	"fmt"
	"testing"

	"allsatpre/internal/cube"
	"allsatpre/internal/trans"
)

// TestSuccessCoverMatchesFullNetlist checks that Compute's success-driven
// cover, enumerated over the next-state cone only, equals cube for cube
// the cover the same pipeline enumerates over the full-netlist CNF. The
// cover is the ISOP of the exact projected BDD, so dropping the off-cone
// gates must not move a single cube.
func TestSuccessCoverMatchesFullNetlist(t *testing.T) {
	for _, nc := range determinismSuite() {
		c := nc.Circuit
		target := wideTarget(len(c.Latches))
		got, err := Compute(c, target, Options{})
		if err != nil {
			t.Fatal(err)
		}

		inst, err := trans.NewInstance(c, target)
		if err != nil {
			t.Fatal(err)
		}
		full := inst.Enc.F.Clone()
		full.NumVars = inst.F.NumVars
		for _, cl := range inst.F.Clauses[len(inst.Enc.NextStateCone()):] {
			full.AddClause(cl.Clone())
		}
		opts := Options{}
		projVars, projNames := projectionOrder(inst, opts)
		projSpace := cube.NewNamedSpace(projVars, projNames)
		applySimplify(full, projSpace, &opts)
		pr, res := runSuccessDriven(full, projSpace, opts)
		pr.Release()
		stateSpace := StateSpace(c)
		want := cube.NewCover(stateSpace)
		for _, cb := range res.Cover.Cubes() {
			sc := stateSpace.FullCube()
			for i, v := range inst.StateVars {
				sc[i] = cb[projSpace.PosOf(v)]
			}
			want.Add(sc)
		}
		want.Reduce()

		if g, w := fmt.Sprint(got.States.Cubes()), fmt.Sprint(want.Cubes()); g != w {
			t.Fatalf("%s: cover differs from the full netlist's\ngot  %s\nwant %s", nc.Name, g, w)
		}
	}
}
