package simplify

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"allsatpre/internal/cnf"
	"allsatpre/internal/gen"
	"allsatpre/internal/lit"
	"allsatpre/internal/trans"
)

// The golden digests pin Run's exact output — the rebuilt clause list,
// the elimination stack and Stats — over two fixed seeded populations.
// Any change to the simplifier's internals must leave them untouched; a
// digest that moves means the transformation itself changed.
const (
	goldenSLikeDigest  = "33051bc4bf06273448f324e857e5edf3997c7cba0aeee3147fce0cbb19291a26"
	goldenRandomDigest = "4c7ce0481d1fecdb1df9890a6646c20d04046e2b21db691fa3b89da5d13f6704"
)

// goldenCase is one population member: a formula, its frozen set and the
// options to run with.
type goldenCase struct {
	f      *cnf.Formula
	frozen []bool
	opts   Options
}

// goldenSLike builds the preimage CNFs of 64 seeded SLike circuits (8
// inputs, 10 latches, 200 gates), each with a seeded two-pattern target,
// frozen on the instance's full (state and input) projection space.
func goldenSLike(tb testing.TB) []goldenCase {
	var out []goldenCase
	for k := 0; k < 64; k++ {
		c := gen.SLike(gen.SLikeParams{Seed: 1000 + int64(k), Inputs: 8, Latches: 10, Gates: 200})
		rng := rand.New(rand.NewSource(int64(k)))
		var pats []string
		for p := 0; p < 2; p++ {
			b := make([]byte, 10)
			for i := range b {
				b[i] = "01XX"[rng.Intn(4)]
			}
			pats = append(pats, string(b))
		}
		inst, err := trans.NewInstance(c, trans.TargetFromPatterns(10, pats...))
		if err != nil {
			tb.Fatal(err)
		}
		frozen := make([]bool, inst.F.NumVars)
		for _, v := range inst.FullSpace.Vars() {
			frozen[v] = true
		}
		out = append(out, goldenCase{f: inst.F, frozen: frozen})
	}
	return out
}

// goldenRandomOptions cycles the random population through the default
// tuning and non-default caps, so the probe budget, the growth bound, the
// round limit and disabled probing are all pinned.
var goldenRandomOptions = []Options{
	{},
	{MaxProbes: 3},
	{MaxGrowth: 2, MaxOccur: 12},
	{NoProbing: true, MaxRounds: 1},
	{MaxRounds: 2, MaxProbes: 20},
}

// goldenRandom builds 320 random 1..4-CNFs over 6..45 variables with
// random frozen subsets.
func goldenRandom() []goldenCase {
	rng := rand.New(rand.NewSource(4242))
	var out []goldenCase
	for i := 0; i < 320; i++ {
		n := 6 + rng.Intn(40)
		f := randomFormula(rng, n, n+rng.Intn(4*n))
		frozen := make([]bool, n)
		for _, j := range rng.Perm(n)[:rng.Intn(n/2+1)] {
			frozen[j] = true
		}
		out = append(out, goldenCase{f: f, frozen: frozen, opts: goldenRandomOptions[i%len(goldenRandomOptions)]})
	}
	return out
}

// run simplifies a copy of the case's formula.
func (gc goldenCase) run() (*cnf.Formula, *Result) {
	f := gc.f.Clone()
	res := Run(f, func(v lit.Var) bool { return gc.frozen[v] }, gc.opts)
	return f, res
}

// writeDigest feeds one run's observable output into h.
func writeDigest(h hash.Hash, f *cnf.Formula, res *Result) {
	fmt.Fprintf(h, "nv=%d unsat=%v\n", f.NumVars, res.Unsat)
	for _, c := range f.Clauses {
		fmt.Fprintln(h, []lit.Lit(c))
	}
	for _, rec := range res.stack {
		fmt.Fprintf(h, "rec v=%d unit=%d", rec.v, rec.unit)
		for _, c := range rec.clauses {
			fmt.Fprint(h, " ", []lit.Lit(c))
		}
		fmt.Fprintln(h)
	}
	fmt.Fprintf(h, "%+v\n", res.Stats)
}

func digest(cases []goldenCase) string {
	h := sha256.New()
	for _, gc := range cases {
		f, res := gc.run()
		writeDigest(h, f, res)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenOutput is the bit-identity reference for the simplifier: the
// digests were computed with the original algorithm and must not move.
func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cases []goldenCase
		want  string
	}{
		{"slike", goldenSLike(t), goldenSLikeDigest},
		{"random", goldenRandom(), goldenRandomDigest},
	} {
		if got := digest(tc.cases); got != tc.want {
			t.Errorf("%s: output digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

var benchSink *Result

// BenchmarkRun times one Run per op, cycling through the golden SLike
// population. Run never writes to its input clauses, so each op simplifies
// a fresh header over the shared clause slices and the measurement holds
// Run alone.
func BenchmarkRun(b *testing.B) {
	cases := goldenSLike(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gc := cases[i%len(cases)]
		f := &cnf.Formula{NumVars: gc.f.NumVars, Clauses: gc.f.Clauses}
		benchSink = Run(f, func(v lit.Var) bool { return gc.frozen[v] }, gc.opts)
	}
}
