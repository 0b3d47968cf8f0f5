package circuit_test

import (
	"testing"

	"allsatpre/internal/circuit"
	"allsatpre/internal/gen"
)

// BenchmarkParseBench times ParseBenchString per op, cycling through the
// BENCH texts of eight SLike circuits with 8 inputs, 10 latches and 200
// gates (the preimage-oneshot population's shape).
func BenchmarkParseBench(b *testing.B) {
	texts := make([]string, 8)
	for i := range texts {
		texts[i] = circuit.BenchString(gen.SLike(gen.SLikeParams{Seed: int64(1 + i), Inputs: 8, Latches: 10, Gates: 200}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := circuit.ParseBenchString("slike", texts[i%len(texts)]); err != nil {
			b.Fatal(err)
		}
	}
}
