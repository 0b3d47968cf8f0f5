package experiments

import (
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"allsatpre/internal/gen"
	"allsatpre/internal/preimage"
	"allsatpre/internal/stats"
)

// Experiments are costly; run each once and share across the tests.
var (
	t1Once sync.Once
	t1Tb   *stats.Table
	t1Rows []Row
)

func runTable1(t *testing.T) (*stats.Table, []Row) {
	t.Helper()
	t1Once.Do(func() { t1Tb, t1Rows = table1().Run() })
	return t1Tb, t1Rows
}

// groupByCircuit collects rows per circuit for cross-engine checks.
func groupByCircuit(rows []Row) map[string][]Row {
	out := map[string][]Row{}
	for _, r := range rows {
		out[r.Circuit] = append(out[r.Circuit], r)
	}
	return out
}

func TestTable1EnginesAgree(t *testing.T) {
	tb, rows := runTable1(t)
	if tb.NumRows() != len(rows) || len(rows) == 0 {
		t.Fatal("row bookkeeping")
	}
	for name, rs := range groupByCircuit(rows) {
		// Aborted (capped) rows are under-approximations; compare the
		// exact rows among themselves and check capped rows are ≤ exact.
		var exact *Row
		for i := range rs {
			if !rs[i].Aborted {
				exact = &rs[i]
				break
			}
		}
		if exact == nil {
			t.Fatalf("%s: every engine aborted", name)
		}
		for _, r := range rs {
			if r.Aborted {
				if r.Count.Cmp(exact.Count) > 0 {
					t.Fatalf("%s: aborted row exceeds exact count", name)
				}
				continue
			}
			if r.Count.Cmp(exact.Count) != 0 {
				t.Fatalf("%s: engines disagree on state count: %v (%v) vs %v (%v)",
					name, r.Count, r.Engine, exact.Count, exact.Engine)
			}
		}
	}
}

func TestTable1LiftingUsesFewerOrEqualCubes(t *testing.T) {
	_, rows := runTable1(t)
	byCir := groupByCircuit(rows)
	for name, rs := range byCir {
		var blocking, lifting *Row
		for i := range rs {
			switch rs[i].Engine {
			case preimage.EngineBlocking:
				blocking = &rs[i]
			case preimage.EngineLifting:
				lifting = &rs[i]
			}
		}
		if blocking == nil || lifting == nil {
			t.Fatalf("%s: missing engines", name)
		}
		if lifting.Cubes > blocking.Cubes {
			t.Errorf("%s: lifting used more cubes (%d) than blocking (%d)",
				name, lifting.Cubes, blocking.Cubes)
		}
	}
}

func TestTable2EnginesAgree(t *testing.T) {
	_, rows := table2().Run()
	for name, rs := range groupByCircuit(rows) {
		for _, r := range rs[1:] {
			if r.Count.Cmp(rs[0].Count) != 0 {
				t.Fatalf("%s: SAT and BDD disagree: %v vs %v", name, r.Count, rs[0].Count)
			}
		}
	}
}

func TestTable3EnginesAgree(t *testing.T) {
	_, rows := table3(4).Run()
	for name, rs := range groupByCircuit(rows) {
		for _, r := range rs[1:] {
			if r.Count.Cmp(rs[0].Count) != 0 {
				t.Fatalf("%s: reach totals disagree: %v (%v) vs %v (%v)",
					name, r.Count, r.Engine, rs[0].Count, rs[0].Engine)
			}
			if r.Steps != rs[0].Steps {
				t.Fatalf("%s: step counts disagree", name)
			}
		}
	}
}

func TestFig1Shapes(t *testing.T) {
	_, rows := fig1([]int{2, 4, 6}, 10).Run()
	if len(rows) != 6 {
		t.Fatalf("want 6 rows, got %d", len(rows))
	}
	// Per sweep point, both engines report the same solution count
	// (neither should hit the cap at these sizes), and the solution
	// count grows with the number of free bits.
	var prev int64 = -1
	for i := 0; i < len(rows); i += 2 {
		if rows[i].Aborted || rows[i+1].Aborted {
			t.Fatalf("free=%v: unexpected abort", rows[i].Extra)
		}
		if rows[i].Count.Cmp(rows[i+1].Count) != 0 {
			t.Fatalf("free=%v: counts differ", rows[i].Extra)
		}
		if rows[i].Count.Int64() <= prev {
			t.Fatalf("solution count should grow with free bits")
		}
		prev = rows[i].Count.Int64()
	}
	// Blocking enumerates one cube per (s, x) model; success-driven must
	// use far fewer cubes at the largest point.
	last := rows[len(rows)-2:]
	if last[1].Cubes*4 > last[0].Cubes {
		t.Errorf("success-driven cubes (%d) should be ≪ blocking cubes (%d)",
			last[1].Cubes, last[0].Cubes)
	}
}

func TestFig2MemoMatchesAndHits(t *testing.T) {
	_, rows := fig2([]int{40, 80}).Run()
	for i := 0; i < len(rows); i += 2 {
		off, on := rows[i], rows[i+1]
		if off.Count.Cmp(on.Count) != 0 {
			t.Fatalf("memo ablation changed the answer at size %v", off.Extra)
		}
		if off.CacheHit != 0 {
			t.Fatal("memo-off run should have no cache hits")
		}
		if on.Decisions > off.Decisions {
			t.Errorf("memo-on should not need more decisions (%d vs %d)", on.Decisions, off.Decisions)
		}
	}
}

func TestFig3LiftingFreesVariables(t *testing.T) {
	_, rows := fig3().Run()
	totalFreedLift, totalFreedBlock := 0.0, 0.0
	for _, r := range rows {
		switch r.Engine {
		case preimage.EngineLifting:
			totalFreedLift += r.AvgFree
		case preimage.EngineBlocking:
			totalFreedBlock += r.AvgFree
		}
	}
	if totalFreedLift <= totalFreedBlock {
		t.Errorf("lifting should free more variables: %.2f vs %.2f",
			totalFreedLift, totalFreedBlock)
	}
}

func TestTable4OrdersAgree(t *testing.T) {
	_, rows := table4().Run()
	for name, rs := range groupByCircuit(rows) {
		for _, r := range rs[1:] {
			if r.Count.Cmp(rs[0].Count) != 0 {
				t.Fatalf("%s: decision orders disagree on state count", name)
			}
		}
	}
}

func TestTable5OrdersAgree(t *testing.T) {
	_, rows := table5().Run()
	for name, rs := range groupByCircuit(rows) {
		if len(rs) != 2 {
			t.Fatalf("%s: want 2 rows", name)
		}
		if rs[0].Count.Cmp(rs[1].Count) != 0 {
			t.Fatalf("%s: orderings disagree on state count", name)
		}
	}
}

func TestFig4EnginesAgree(t *testing.T) {
	_, rows := fig4([]float64{0.05, 0.35}).Run()
	for i := 0; i < len(rows); i += 2 {
		if rows[i].Count.Cmp(rows[i+1].Count) != 0 {
			t.Fatalf("xf=%v: engines disagree", rows[i].Extra)
		}
	}
}

func TestTable6EliminationAgrees(t *testing.T) {
	_, rows := table6().Run()
	// Rows are grouped by (circuit, engine), each group led by its "none"
	// row; every reduction must reproduce that row's state count.
	type key struct {
		circuit string
		engine  preimage.Engine
	}
	none := map[key]Row{}
	reduced := map[key]int{}
	for _, r := range rows {
		k := key{r.Circuit, r.Engine}
		base, ok := none[k]
		if !ok {
			if r.SimplifyVars != 0 {
				t.Fatalf("%s/%v: group does not start with the unreduced row", r.Circuit, r.Engine)
			}
			none[k] = r
			continue
		}
		if base.Count.Cmp(r.Count) != 0 {
			t.Fatalf("%s/%v: reduction changed the answer: %v vs %v", r.Circuit, r.Engine, r.Count, base.Count)
		}
		reduced[k]++
	}
	for k := range none {
		if reduced[k] == 0 {
			t.Fatalf("%s/%v: no reduced row to compare", k.circuit, k.engine)
		}
	}
}

func TestTargetForDeterministicAndFixed(t *testing.T) {
	c := gen.Counter(6, true, false)
	c1 := targetFor(c)
	c2 := targetFor(gen.Counter(6, true, false))
	if c1.Cubes()[0].String() != c2.Cubes()[0].String() {
		t.Fatal("targetFor not deterministic")
	}
	if cb := c1.Cubes()[0]; cb.FreeVars() == len(cb) {
		t.Fatal("targetFor should fix at least one position")
	}
}

// TestSelect picks tables by name in registry order, selects all of them
// for no names, and rejects an unknown name with the known ones listed.
func TestSelect(t *testing.T) {
	tables := Tables(ReachSteps)
	names := func(ts []Table) string {
		var out []string
		for _, t := range ts {
			out = append(out, t.Name)
		}
		return strings.Join(out, ",")
	}
	if got, err := Select(tables, nil); err != nil || names(got) != names(tables) {
		t.Fatalf("no names: got %s (%v), want every table", names(got), err)
	}
	if got, err := Select(tables, []string{"fig2", "table1"}); err != nil || names(got) != "table1,fig2" {
		t.Fatalf("fig2,table1: got %s (%v), want table1,fig2", names(got), err)
	}
	_, err := Select(tables, []string{"table1", "tabel1"})
	if err == nil || !strings.Contains(err.Error(), `"tabel1"`) || !strings.Contains(err.Error(), "table7") {
		t.Fatalf("tabel1: error %v, want one naming tabel1 and listing the tables", err)
	}
}

// TestTablesMatchCapture runs every table at one worker, as
// `experiments -workers 1` does, and compares it with
// experiments_output.txt, the capture EXPERIMENTS.md quotes, in every
// column but the times. A change that moves a non-time column must
// regenerate the capture and say why.
func TestTablesMatchCapture(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every table")
	}
	data, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer func(w int) { RunWorkers = w }(RunWorkers)
	RunWorkers = 1
	var out strings.Builder
	for _, tb := range Tables(ReachSteps) {
		rendered, _ := tb.Run()
		rendered.Render(&out)
		out.WriteString("\n")
	}
	got, want := maskTimes(out.String()), maskTimes(string(data))
	if len(got) != len(want) {
		t.Fatalf("%d lines, the capture has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d: %q, the capture has %q", i+1, got[i], want[i])
		}
	}
}

// durationCell matches a rendered time cell (stats.Table's duration
// format).
var durationCell = regexp.MustCompile(`^[0-9]+(\.[0-9]+)?(µs|ms|s)$`)

// maskTimes splits rendered tables into lines of whitespace-separated
// cells, with every time cell and every rule line masked: a time cell's
// width also sets its column's padding and rule.
func maskTimes(s string) []string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		cells := strings.Fields(l)
		for j, c := range cells {
			if durationCell.MatchString(c) || strings.Trim(c, "-") == "" {
				cells[j] = "_"
			}
		}
		lines[i] = strings.Join(cells, " ")
	}
	return lines
}
