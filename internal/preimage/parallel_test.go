package preimage

import (
	"testing"

	"allsatpre/internal/gen"
	"allsatpre/internal/trans"
)

func TestParallelEqualsSerial(t *testing.T) {
	for _, nc := range []gen.NamedCircuit{
		{Name: "counter6", Circuit: gen.Counter(6, true, false)},
		{Name: "slike1", Circuit: gen.SLike(gen.SLikeParams{Seed: 1, Inputs: 6, Latches: 6, Gates: 60})},
		{Name: "traffic", Circuit: gen.TrafficLight()},
	} {
		nL := len(nc.Circuit.Latches)
		pat := make([]byte, nL)
		for i := range pat {
			pat[i] = "01X"[i%3]
		}
		target := trans.TargetFromPatterns(nL, string(pat))
		for _, eng := range []Engine{EngineSuccessDriven, EngineLifting, EngineBDD} {
			serial, err := Compute(nc.Circuit, target, Options{Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 7} {
				par, err := Compute(nc.Circuit, target, Options{Engine: eng, Parallel: workers})
				if err != nil {
					t.Fatal(err)
				}
				if par.Count.Cmp(serial.Count) != 0 {
					t.Fatalf("%s/%v/p%d: count %v, want %v",
						nc.Name, eng, workers, par.Count, serial.Count)
				}
				if !par.States.Equal(serial.States) {
					t.Fatalf("%s/%v/p%d: covers differ", nc.Name, eng, workers)
				}
			}
		}
	}
}
