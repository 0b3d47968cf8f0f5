package preimage

import (
	"testing"

	"allsatpre/internal/budget"
	"allsatpre/internal/gen"
)

// BenchmarkComputeAllSAT times one-step preimages with the blocking,
// lifting and disjoint engines on one fixed SLike instance of the size
// the deadline-bound serving benchmark sends (14 inputs, 16 latches, 600
// gates). A cube cap ends every run at the same cube, so each iteration
// does the same search and the same post-search work: projecting the
// capped (state, input) cubes onto the latches, reducing and counting
// the state cover. Run with -benchmem.
func BenchmarkComputeAllSAT(b *testing.B) {
	c := gen.SLike(gen.SLikeParams{Seed: 3000, Inputs: 14, Latches: 16, Gates: 600})
	target := wideTarget(len(c.Latches))
	for _, eng := range []Engine{EngineBlocking, EngineLifting, EngineDisjoint} {
		b.Run(eng.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := Compute(c, target, Options{Engine: eng, Budget: budget.Budget{MaxCubes: 2000}})
				if err != nil {
					b.Fatal(err)
				}
				if r.Count.Sign() == 0 {
					b.Fatal("empty preimage; pick another instance")
				}
			}
		})
	}
}
