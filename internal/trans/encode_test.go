package trans

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"allsatpre/internal/cnf"
	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
)

// counter returns a newVar that hands out next, next+1, ...
func counter(next lit.Var) func() lit.Var {
	return func() lit.Var {
		next++
		return next - 1
	}
}

// TestEncodeCoverPinned pins both encodings, variable ids included, for
// a 2-cube cover and for an empty one over the variables 3, 4, 5, with
// fresh variables from 10 up.
func TestEncodeCoverPinned(t *testing.T) {
	vars := []lit.Var{3, 4, 5}
	two := TargetFromPatterns(3, "1X0", "01X")
	empty := TargetFromPatterns(3)
	p, n := lit.Pos, lit.Neg
	cases := []struct {
		name    string
		cv      *cube.Cover
		gated   bool
		act     lit.Lit
		vars    []lit.Var
		clauses []cnf.Clause
	}{
		{"two-plain", two, false, lit.UndefLit, []lit.Var{10, 11}, []cnf.Clause{
			{n(10), p(3)}, {n(10), n(5)},
			{n(11), n(3)}, {n(11), p(4)},
			{p(10), p(11)},
		}},
		{"two-gated", two, true, p(10), []lit.Var{10, 11, 12}, []cnf.Clause{
			{n(10), n(11), p(3)}, {n(10), n(11), n(5)},
			{n(10), n(12), n(3)}, {n(10), n(12), p(4)},
			{n(10), p(11), p(12)},
		}},
		{"empty-plain", empty, false, lit.UndefLit, []lit.Var{}, []cnf.Clause{{}}},
		{"empty-gated", empty, true, p(10), []lit.Var{10}, []cnf.Clause{{n(10)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var clauses []cnf.Clause
			act, private := EncodeCover(tc.cv, vars, tc.gated, counter(10), func(cl cnf.Clause) {
				clauses = append(clauses, cl)
			})
			if act != tc.act {
				t.Errorf("act = %v, want %v", act, tc.act)
			}
			if !slices.Equal(private, tc.vars) {
				t.Errorf("variables = %v, want %v", private, tc.vars)
			}
			if len(clauses) != len(tc.clauses) {
				t.Fatalf("clauses = %v, want %v", clauses, tc.clauses)
			}
			for i := range tc.clauses {
				if !slices.Equal(clauses[i], tc.clauses[i]) {
					t.Fatalf("clause %d = %v, want %v (all: %v)", i, clauses[i], tc.clauses[i], clauses)
				}
			}
		})
	}
}

// TestEncodeCoverModels checks the encoder's models by brute force on
// random covers over four variables, empty ones included: projected onto
// the variables, the plain encoding and the gated one under the gate
// have exactly the cover's minterms as models, and under ¬gate the
// gated one has every valuation.
func TestEncodeCoverModels(t *testing.T) {
	const width = 4
	vars := []lit.Var{0, 1, 2, 3}
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		var patterns []string
		for k := rng.Intn(4); k > 0; k-- {
			b := make([]byte, width)
			for i := range b {
				b[i] = "01X"[rng.Intn(3)]
			}
			patterns = append(patterns, string(b))
		}
		cv := TargetFromPatterns(width, patterns...)
		minterms, all := map[string]bool{}, map[string]bool{}
		for m := 0; m < 1<<width; m++ {
			val := make([]bool, width)
			key := make([]byte, width)
			for i := range val {
				val[i] = m>>i&1 == 1
				key[i] = "01"[m>>i&1]
			}
			all[string(key)] = true
			if cv.Contains(val) {
				minterms[string(key)] = true
			}
		}
		// models encodes cv into a fresh formula over vars; a gated
		// group also gets the unit gate(act).
		models := func(gated bool, gate func(lit.Var) lit.Lit) map[string]bool {
			f := cnf.New(width)
			act, _ := EncodeCover(cv, vars, gated, f.NewVar, f.AddClause)
			if gated {
				f.Add(gate(act.Var()))
			}
			return f.ProjectedModels(vars)
		}
		for _, tc := range []struct {
			name string
			got  map[string]bool
			want map[string]bool
		}{
			{"plain", models(false, nil), minterms},
			{"gate", models(true, lit.Pos), minterms},
			{"¬gate", models(true, lit.Neg), all},
		} {
			if !reflect.DeepEqual(tc.got, tc.want) {
				t.Fatalf("cover %q, %s: models %v, want %v", patterns, tc.name, tc.got, tc.want)
			}
		}
	}
}

// TestFrame checks one frame's remapping on s27: the state variables
// alias the given vector, every other variable v becomes base+v, and the
// inputs and next state come back remapped.
func TestFrame(t *testing.T) {
	inst, err := NewBaseInstance(loadS27(t))
	if err != nil {
		t.Fatal(err)
	}
	state := []lit.Var{100, 101, 102}
	base := 200
	want := func(v lit.Var) lit.Var {
		if i := slices.Index(inst.StateVars, v); i >= 0 {
			return state[i]
		}
		return lit.Var(base) + v
	}
	var clauses []cnf.Clause
	inputs, next := inst.Frame(state, base, func(cl cnf.Clause) { clauses = append(clauses, cl) })
	if len(clauses) != len(inst.F.Clauses) {
		t.Fatalf("%d clauses, want %d", len(clauses), len(inst.F.Clauses))
	}
	for i, cl := range inst.F.Clauses {
		for j, l := range cl {
			if got := clauses[i][j]; got != lit.New(want(l.Var()), l.Sign()) {
				t.Fatalf("clause %d literal %d = %v, want %v remapped", i, j, got, l)
			}
		}
	}
	for i, v := range inst.InputVars {
		if inputs[i] != want(v) {
			t.Errorf("input %d = %v, want %v", i, inputs[i], want(v))
		}
	}
	for i, v := range inst.NextVars {
		if next[i] != want(v) {
			t.Errorf("next state %d = %v, want %v", i, next[i], want(v))
		}
	}
}

// FuzzParseTarget: ParseTarget never panics, and it accepts a pattern
// exactly when cube.Space.CubeOf does, building the same cube.
func FuzzParseTarget(f *testing.F) {
	for _, s := range []string{"", "1X0", "01x-", "2Z", "1\xff0", "X\u00e9", "10", "0000"} {
		f.Add(uint8(3), s)
	}
	f.Add(uint8(0), "")
	f.Fuzz(func(t *testing.T, width uint8, p string) {
		n := int(width % 16)
		cv, err := ParseTarget(n, p)
		sp := TargetFromPatterns(n).Space()
		var want cube.Cube
		panicked := func() (bad bool) {
			defer func() { bad = recover() != nil }()
			want = sp.CubeOf(p)
			return false
		}()
		if (err != nil) != panicked {
			t.Fatalf("ParseTarget(%d, %q) error %v, but CubeOf panicked=%v", n, p, err, panicked)
		}
		if err == nil && (cv.Len() != 1 || !slices.Equal(cv.Cubes()[0], want)) {
			t.Fatalf("ParseTarget(%d, %q) = %v, want %v", n, p, cv, want)
		}
	})
}
