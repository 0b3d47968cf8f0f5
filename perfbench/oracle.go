package main

import (
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"

	"allsatpre/internal/circuit"
)

// The correctness oracle. Everything here runs outside the timed region
// and answers questions from the circuit simulator alone: does some
// input drive this state into the target, and which (state, input)
// pairs do. It shares no code with the engines it checks.

// oracle wraps one circuit's bit-parallel simulator.
type oracle struct {
	c      *circuit.Circuit
	sim    *circuit.Simulator
	nL, nI int
}

func newOracle(c *circuit.Circuit) *oracle {
	sim, err := circuit.NewSimulator(c)
	if err != nil {
		panic(err) // generated circuits are acyclic by construction
	}
	return &oracle{c: c, sim: sim, nL: len(c.Latches), nI: len(c.Inputs)}
}

// pattern is a parsed 01X string: bit i of care is set where position i
// is constrained, and bit i of val gives its value there.
type pattern struct{ care, val uint64 }

func parsePattern(s string) (pattern, error) {
	if len(s) > 64 {
		return pattern{}, fmt.Errorf("pattern %q wider than 64 positions", s)
	}
	var p pattern
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
			p.care |= 1 << i
		case '1':
			p.care |= 1 << i
			p.val |= 1 << i
		case 'X', 'x', '-':
		default:
			return pattern{}, fmt.Errorf("pattern %q: bad character %q", s, s[i])
		}
	}
	return p, nil
}

func mustPatterns(ss []string) []pattern {
	out := make([]pattern, len(ss))
	for i, s := range ss {
		p, err := parsePattern(s)
		if err != nil {
			panic(err)
		}
		out[i] = p
	}
	return out
}

func (p pattern) contains(m uint64) bool { return m&p.care == p.val }

// laneBits[k] is the lane mask where bit k of the lane index is set.
var laneBits = [6]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// step64 returns the lanes of successors(s, base) that lie in the
// target, masked to the lanes that exist (inputs < 2^nI).
func (o *oracle) step64(s uint64, base uint64, target []pattern) uint64 {
	next := o.successors(s, base)
	var hit uint64
	for _, p := range target {
		m := ^uint64(0)
		for k := 0; k < o.nL; k++ {
			if p.care>>k&1 == 0 {
				continue
			}
			if p.val>>k&1 == 1 {
				m &= next[k]
			} else {
				m &^= next[k]
			}
		}
		hit |= m
	}
	if o.nI < 6 {
		hit &= 1<<(1<<o.nI) - 1
	}
	return hit
}

// successors simulates state s under the 64 input vectors base..base+63
// (lane j carries input base+j) and returns the next-state bit lanes.
func (o *oracle) successors(s uint64, base uint64) []uint64 {
	state := make([]uint64, o.nL)
	for k := range state {
		if s>>k&1 == 1 {
			state[k] = ^uint64(0)
		}
	}
	in := make([]uint64, o.nI)
	for k := range in {
		switch {
		case k < 6:
			in[k] = laneBits[k]
		case base>>k&1 == 1:
			in[k] = ^uint64(0)
		}
	}
	_, next := o.sim.Step64(state, in)
	return next
}

// existsInput reports whether some input drives state s into the target.
func (o *oracle) existsInput(s uint64, target []pattern) bool {
	for base := uint64(0); base < 1<<o.nI; base += 64 {
		if o.step64(s, base, target) != 0 {
			return true
		}
	}
	return false
}

// bitset is a dense set over a 2^n universe.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (1<<n+63)/64) }

func (b bitset) set(i uint64)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) has(i uint64) bool { return b[i/64]>>(i%64)&1 == 1 }

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

func (b bitset) equal(o bitset) bool {
	if len(b) != len(o) {
		return false
	}
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

func (b bitset) subsetOf(o bitset) bool {
	if len(b) != len(o) {
		return false
	}
	for i := range b {
		if b[i]&^o[i] != 0 {
			return false
		}
	}
	return true
}

// pairSet returns the exact set of (state, input) pairs whose successor
// lies in the target, indexed state | input<<nL. Needs nL+nI <= 26.
func (o *oracle) pairSet(target []pattern) bitset {
	out := newBitset(o.nL + o.nI)
	for s := uint64(0); s < 1<<o.nL; s++ {
		for base := uint64(0); base < 1<<o.nI; base += 64 {
			hit := o.step64(s, base, target)
			for hit != 0 {
				j := uint64(bits.TrailingZeros64(hit))
				hit &= hit - 1
				out.set(s | (base+j)<<o.nL)
			}
		}
	}
	return out
}

// statesOf projects a pair set onto the state bits.
func (o *oracle) statesOf(pairs bitset) bitset {
	out := newBitset(o.nL)
	for i := range pairs {
		w := pairs[i]
		for w != 0 {
			j := uint64(bits.TrailingZeros64(w))
			w &= w - 1
			out.set((uint64(i)*64 + j) & (1<<o.nL - 1))
		}
	}
	return out
}

// coverSet expands a cover of patterns into its minterm set over n bits.
func coverSet(n int, cubes []pattern) bitset {
	out := newBitset(n)
	full := uint64(1)<<n - 1
	for _, p := range cubes {
		free := full &^ p.care
		for sub := free; ; sub = (sub - 1) & free {
			out.set(p.val | sub)
			if sub == 0 {
				break
			}
		}
	}
	return out
}

// sampleIn draws a random minterm of cube p over n bits.
func sampleIn(p pattern, n int, rng *rand.Rand) uint64 {
	r := rng.Uint64() & (1<<n - 1)
	return p.val | r&^p.care
}

// checkStateCover samples a state cover against the simulator: states
// drawn from the cubes must have an input into the target (soundness),
// and when complete, states drawn outside the cover must not
// (completeness). It returns a description of the first violation.
func (o *oracle) checkStateCover(cubes []pattern, target []pattern, complete bool, rng *rand.Rand, samples int) string {
	for i := 0; i < samples && len(cubes) > 0; i++ {
		s := sampleIn(cubes[rng.Intn(len(cubes))], o.nL, rng)
		if !o.existsInput(s, target) {
			return fmt.Sprintf("unsound: state %0*b is in the cover but no input reaches the target", o.nL, bits.Reverse64(s)>>(64-o.nL))
		}
	}
	if !complete {
		return ""
	}
	for i, tries := 0, 0; i < samples && tries < 64*samples; tries++ {
		s := rng.Uint64() & (1<<o.nL - 1)
		in := false
		for _, p := range cubes {
			if p.contains(s) {
				in = true
				break
			}
		}
		if in {
			continue
		}
		i++
		if o.existsInput(s, target) {
			return fmt.Sprintf("incomplete: state %0*b reaches the target but is outside the cover", o.nL, bits.Reverse64(s)>>(64-o.nL))
		}
	}
	return ""
}

// predGraph is a circuit's explicit transition graph reversed: the
// predecessors of state t are pred[start[t]:start[t+1]].
type predGraph struct {
	start, pred []uint32
}

// predecessors builds the reversed transition graph from one simulator
// sweep over every (state, input) pair. Needs nL+nI <= 22.
func (o *oracle) predecessors() *predGraph {
	nS := uint64(1) << o.nL
	succ := make([]uint32, nS<<o.nI)
	lanes := uint64(64)
	if o.nI < 6 {
		lanes = 1 << o.nI
	}
	for s := uint64(0); s < nS; s++ {
		for base := uint64(0); base < 1<<o.nI; base += 64 {
			next := o.successors(s, base)
			for j := uint64(0); j < lanes; j++ {
				var t uint64
				for k := 0; k < o.nL; k++ {
					t |= (next[k] >> j & 1) << k
				}
				succ[s<<o.nI|(base+j)] = uint32(t)
			}
		}
	}
	g := &predGraph{start: make([]uint32, nS+1), pred: make([]uint32, len(succ))}
	for _, t := range succ {
		g.start[t+1]++
	}
	for i := uint64(1); i <= nS; i++ {
		g.start[i] += g.start[i-1]
	}
	fill := append([]uint32(nil), g.start[:nS]...)
	for e, t := range succ {
		g.pred[fill[t]] = uint32(uint64(e) >> o.nI)
		fill[t]++
	}
	return g
}

// layers runs a backward breadth-first search from the target and
// returns the number of states first reached at each distance (layer 0
// is the target itself).
func (g *predGraph) layers(o *oracle, target []pattern) []*big.Int {
	nS := uint64(1) << o.nL
	visited := newBitset(o.nL)
	var frontier []uint32
	for s := uint64(0); s < nS; s++ {
		for _, p := range target {
			if p.contains(s) {
				visited.set(s)
				frontier = append(frontier, uint32(s))
				break
			}
		}
	}
	layers := []*big.Int{big.NewInt(int64(len(frontier)))}
	for len(frontier) > 0 {
		var next []uint32
		for _, t := range frontier {
			for _, s := range g.pred[g.start[t]:g.start[t+1]] {
				if !visited.has(uint64(s)) {
					visited.set(uint64(s))
					next = append(next, s)
				}
			}
		}
		if len(next) > 0 {
			layers = append(layers, big.NewInt(int64(len(next))))
		}
		frontier = next
	}
	return layers
}
