package circuit_test

import (
	"bufio"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"allsatpre/internal/circuit"
	"allsatpre/internal/gen"
)

// differentialSeeds returns BENCH texts for the parser differential:
// the FuzzParseBench corpus, every generator circuit written as BENCH
// (also lower-cased and with CRLF line ends), the parse-error cases and
// lines whose non-ASCII letters upper-case to ASCII keywords.
func differentialSeeds() []string {
	seeds := append([]string(nil), circuit.BenchFuzzSeeds...)
	suite := append(gen.Suite(),
		gen.NamedCircuit{Name: "mult4", Circuit: gen.MultCore(4)},
		gen.NamedCircuit{Name: "arbiter3", Circuit: gen.Arbiter(3)},
		gen.NamedCircuit{Name: "fifo2", Circuit: gen.FIFOCtrl(2)},
		gen.NamedCircuit{Name: "slike", Circuit: gen.SLike(gen.SLikeParams{Seed: 1, Inputs: 8, Latches: 10, Gates: 200})},
	)
	for _, nc := range suite {
		text := circuit.BenchString(nc.Circuit)
		seeds = append(seeds, text, strings.ToLower(text), strings.ReplaceAll(text, "\n", "\r\n"))
	}
	seeds = append(seeds,
		"",
		"\n\n  # only comments\n\t\n",
		"INPUT(a)\nINPUT(a)\n",
		"INPUT a\n",
		"INPUT()\n",
		"f = AND(a, b)\n",
		"f = AND(a, b)\ng = OR(c, d)\nh = NOT(e)\n",
		"INPUT(a)\nf = FROB(a, a)\n",
		"INPUT(a)\nf = NOT(a, a)\n",
		"INPUT(a)\nOUTPUT(zz)\nf = NOT(a)",
		"INPUT(a)\nf AND(a)\n",
		"INPUT(a)\nf = AND a, a\n",
		"INPUT(a)\nf = AND(a, g)\ng = NOT(f)\n",
		"INPUT(a)\nf = NOT(a)\nf = BUF(a)\n",
		"f = NOT(f)\n",
		"INPUT(a)\ninput_b = AND(a, a)\n",
		"INPUT(a)\nOUTPUT(f)\nOUTPUT(f)\nz = zero()\no = VDD()\nf = and(a, , o,)\n",
		"ınput(a)\noutput(f)\nf = ınv(a)\n",
		"INPUT(ſ)\nf = BUF(ſ)\nOUTPUT(f)\n",
		"INPUT(a)\nf =  NOT(a) \n",
		"INPUT(a)\nf = ɴOT(a)\n",
		"INPUT(\xff)\nf = NOT(\xff)\n",
		"INPUT(a)\nf = CONST1(a)\n",
		"INPUT(a)\nq = DFF(q)\nOUTPUT(q)\n",
	)
	return seeds
}

// sameParse checks that ParseBenchString and ParseBench agree with the
// reference parser on src.
func sameParse(t *testing.T, src string) {
	t.Helper()
	want, wantErr := circuit.ParseBenchReference("fuzz", strings.NewReader(src))
	for _, p := range []struct {
		name  string
		parse func() (*circuit.Circuit, error)
	}{
		{"ParseBenchString", func() (*circuit.Circuit, error) { return circuit.ParseBenchString("fuzz", src) }},
		{"ParseBench", func() (*circuit.Circuit, error) {
			return circuit.ParseBench("fuzz", iotest.OneByteReader(strings.NewReader(src)))
		}},
	} {
		got, err := p.parse()
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%s: error %v, reference %v\ninput %q", p.name, err, wantErr, src)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: circuit differs from the reference parser's\ninput %q\ngot  %+v\nwant %+v", p.name, src, got, want)
		}
	}
}

// FuzzParseBenchDifferential checks that the one-pass parser returns a
// circuit reflect.DeepEqual to the reference parser's, or the identical
// error string, on every input.
func FuzzParseBenchDifferential(f *testing.F) {
	for _, s := range differentialSeeds() {
		f.Add(s)
	}
	f.Fuzz(sameParse)
}

// TestParseBenchReadError checks a reader error is reported after the
// text read so far, and only when that text parses.
func TestParseBenchReadError(t *testing.T) {
	boom := errors.New("boom")
	for _, src := range []string{"INPUT(a)\nf = NOT(a)\n", "INPUT(a)\nf = NOT(", "INPUT(a)\nf = FROB(a)\nINP"} {
		r := func() io.Reader { return io.MultiReader(strings.NewReader(src), iotest.ErrReader(boom)) }
		want, wantErr := circuit.ParseBenchReference("r", r())
		got, err := circuit.ParseBench("r", r())
		if got != nil || want != nil || err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Errorf("%q: got (%v, %v), reference (%v, %v)", src, got, err, want, wantErr)
		}
	}
}

// TestParseBenchLineCap checks the line length cap of the scanner the
// format was first read with still holds.
func TestParseBenchLineCap(t *testing.T) {
	if testing.Short() {
		t.Skip("16 MB input")
	}
	long := "INPUT(a)\n# " + strings.Repeat("x", 16*1024*1024) + "\nf = NOT(a)\n"
	if _, err := circuit.ParseBenchString("long", long); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("16 MB line: error %v, want %v", err, bufio.ErrTooLong)
	}
	sameParse(t, long)
	sameParse(t, "INPUT(a)\n# "+strings.Repeat("x", 16*1024*1024-3)+"\nf = NOT(a)\n")
}
