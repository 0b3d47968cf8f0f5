package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"allsatpre/internal/circuit"
	"allsatpre/internal/cube"
	"allsatpre/internal/gen"
	"allsatpre/internal/trans"
)

// Input generation. Every input is a pure function of the run seed: no
// choice below looks at how the program behaves on it.
//
// The circuit populations are fixed per workload and the seed draws the
// targets (and the order ops run in). Preimage cost over random SLike
// circuits is heavy-tailed — one circuit in forty can cost 100× the
// median — so drawing the circuits themselves from the seed makes a
// run's medians depend mostly on which outliers it happened to draw.
// With a fixed population every seed sees the same circuits and asks
// different questions of them.

// rngFor derives an independent stream from the run seed and a stream
// label, so adding a stream never shifts the inputs of another.
func rngFor(seed int64, label string, idx int) *rand.Rand {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(idx)*0xBF58476D1CE4E5B9
	for _, b := range []byte(label) {
		h = (h ^ uint64(b)) * 0x100000001B3
	}
	h ^= h >> 31
	return rand.New(rand.NewSource(int64(h)))
}

// warmSeed draws the inputs every set-up warms up with. It is fixed, so
// set-up time does not depend on which targets the run's seed draws.
const warmSeed = 0

// instance is one circuit/target pair, carried as the text a user would
// send: BENCH netlist and 01X target patterns.
type instance struct {
	name     string
	circ     *circuit.Circuit
	bench    string
	patterns []string
	// dimacs is the projected preimage CNF sent to /v1/enumerate; only
	// serve-stream fills it.
	dimacs string
}

func (in *instance) target() *cube.Cover {
	return trans.TargetFromPatterns(len(in.circ.Latches), in.patterns...)
}

// describe renders an instance as a replayable input file.
func (in *instance) describe() string {
	return fmt.Sprintf("# %s\n# target %s\n%s", in.name, strings.Join(in.patterns, ","), in.bench)
}

// slikeCircuit builds member k of a fixed SLike population.
func slikeCircuit(base int64, k, inputs, latches, gates int) *circuit.Circuit {
	return gen.SLike(gen.SLikeParams{Seed: base + int64(k), Inputs: inputs, Latches: latches, Gates: gates})
}

// simulatedState runs the circuit from the all-zero reset state for a
// seeded number of steps under seeded inputs and returns the state
// reached, so targets built from it are reachable and their preimages
// non-empty.
func simulatedState(c *circuit.Circuit, rng *rand.Rand, maxSteps int) []bool {
	sim, err := circuit.NewSimulator(c)
	if err != nil {
		panic(err) // generated circuits are acyclic by construction
	}
	st := make([]bool, len(c.Latches))
	in := make([]bool, len(c.Inputs))
	steps := 1 + rng.Intn(maxSteps)
	for k := 0; k < steps; k++ {
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		_, st = sim.Step(st, in)
	}
	return st
}

// everyFifthX renders a state as a pattern that leaves every fifth
// position unconstrained.
func everyFifthX(st []bool) string {
	b := make([]byte, len(st))
	for i, v := range st {
		switch {
		case i%5 == 4:
			b[i] = 'X'
		case v:
			b[i] = '1'
		default:
			b[i] = '0'
		}
	}
	return string(b)
}

// fixAt renders a state as a pattern constraining only the given
// positions.
func fixAt(st []bool, positions []int) string {
	b := []byte(strings.Repeat("X", len(st)))
	for _, p := range positions {
		if st[p] {
			b[p] = '1'
		} else {
			b[p] = '0'
		}
	}
	return string(b)
}

// slikeInstances builds the population × variants instance list: each
// population member gets `variants` seeded reachable targets.
func slikeInstances(seed int64, label string, base int64, members, variants, inputs, latches, gates int) []*instance {
	var out []*instance
	for k := 0; k < members; k++ {
		c := slikeCircuit(base, k, inputs, latches, gates)
		bench := circuit.BenchString(c)
		for v := 0; v < variants; v++ {
			rng := rngFor(seed, label, k*variants+v)
			out = append(out, &instance{
				name:     fmt.Sprintf("slike%d-i%d-l%d-g%d-t%d", base+int64(k), inputs, latches, gates, v),
				circ:     c,
				bench:    bench,
				patterns: []string{everyFifthX(simulatedState(c, rng, 8))},
			})
		}
	}
	return out
}

// passes maps a global op index onto an item of the population: pass
// i/n runs the n items in its own seeded order, computed once.
type passes struct {
	seed  int64
	label string
	n     int
	mu    sync.Mutex
	order map[int][]int
}

func newPasses(seed int64, label string, n int) *passes {
	return &passes{seed: seed, label: label, n: n, order: map[int][]int{}}
}

func (p *passes) item(i int) int {
	pass := i / p.n
	p.mu.Lock()
	o, ok := p.order[pass]
	if !ok {
		o = rngFor(p.seed, p.label+"/order", pass).Perm(p.n)
		p.order[pass] = o
	}
	p.mu.Unlock()
	return o[i%p.n]
}
