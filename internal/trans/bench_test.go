package trans_test

import (
	"testing"

	"allsatpre/internal/circuit"
	"allsatpre/internal/gen"
	"allsatpre/internal/trans"
)

// BenchmarkNewInstance times NewInstance per op, Tseitin encoding
// included, over SLike circuits with 8 inputs, 10 latches and 200 gates
// (the preimage-oneshot population's shape). The ops cycle through 256
// circuits parsed from eight BENCH texts, far more than the encode cache
// holds, so every op encodes afresh as a one-shot request does.
func BenchmarkNewInstance(b *testing.B) {
	circs := make([]*circuit.Circuit, 256)
	for i := range circs {
		text := circuit.BenchString(gen.SLike(gen.SLikeParams{Seed: int64(1 + i%8), Inputs: 8, Latches: 10, Gates: 200}))
		c, err := circuit.ParseBenchString("slike", text)
		if err != nil {
			b.Fatal(err)
		}
		circs[i] = c
	}
	target := trans.TargetFromPatterns(10, "X1XX0XXXX1", "0XXX1XX0XX")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trans.NewInstance(circs[i%len(circs)], target); err != nil {
			b.Fatal(err)
		}
	}
}
