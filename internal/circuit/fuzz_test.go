package circuit

import (
	"strings"
	"testing"
)

// BenchFuzzSeeds is the seed corpus of the BENCH parser fuzz targets.
var BenchFuzzSeeds = []string{
	"INPUT(a)\nOUTPUT(f)\nf = NOT(a)\n",
	"# comment\nINPUT(x)\nq = DFF(d)\nd = AND(x, q)\nOUTPUT(q)\n",
	"INPUT(a)\nINPUT(b)\nz = XOR(a, b)\nOUTPUT(z)\n",
	"g = CONST1()\nOUTPUT(g)\n",
	"INPUT(a)\nf = NAND(a, a, a)\nOUTPUT(f)\n",
	"INPUT(a)\nf = AND(a\n", // malformed
	"OUTPUT(zz)\n",          // undefined
	"f == AND(a)\n",         // junk
	strings.Repeat("INPUT(a)\n", 3),
}

// FuzzParseBench checks the BENCH parser never panics and that anything
// it accepts survives a write/re-parse round trip.
func FuzzParseBench(f *testing.F) {
	for _, s := range BenchFuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseBenchString("fuzz", src)
		if err != nil {
			return
		}
		// Accepted circuits must be re-parsable with the same interface.
		text := BenchString(c)
		c2, err := ParseBenchString("fuzz2", text)
		if err != nil {
			t.Fatalf("round trip rejected: %v\noriginal:\n%s\nwritten:\n%s", err, src, text)
		}
		if len(c2.Inputs) != len(c.Inputs) || len(c2.Latches) != len(c.Latches) ||
			len(c2.Outputs) != len(c.Outputs) {
			t.Fatalf("interface changed in round trip")
		}
	})
}
