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
		target := nc.Target
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
		projVars, projNames := projectionOrder(inst, Options{}, false)
		projSpace := cube.NewNamedSpace(projVars, projNames)
		run := satRun{f: full, proj: projSpace, pos: latchPositions(inst.StateVars, projSpace)}
		ref, _, err := run.solve(StateSpace(c), Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.States
		if got.Count.Cmp(ref.Count) != 0 {
			t.Fatalf("%s: count %v, full netlist %v", nc.Name, got.Count, ref.Count)
		}

		if g, w := fmt.Sprint(got.States.Cubes()), fmt.Sprint(want.Cubes()); g != w {
			t.Fatalf("%s: cover differs from the full netlist's\ngot  %s\nwant %s", nc.Name, g, w)
		}
	}
}
