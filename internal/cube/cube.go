// Package cube implements cubes (partial assignments) and cube covers over
// a fixed, ordered variable space. Preimage engines report state sets
// either as ROBDDs or as covers of cubes; this package provides the cover
// half: containment, intersection, disjoint decomposition, and exact
// minterm counting.
package cube

import (
	"fmt"
	"math/big"
	"slices"
	"sort"
	"strings"

	"allsatpre/internal/lit"
)

// Space is an ordered list of variables over which cubes are expressed.
type Space struct {
	vars  []lit.Var
	index map[lit.Var]int
	names []string // optional display names, aligned with vars
}

// NewSpace builds a space over the given variables (order is significant).
// Duplicate variables panic.
func NewSpace(vars []lit.Var) *Space {
	s := &Space{
		vars:  append([]lit.Var(nil), vars...),
		index: make(map[lit.Var]int, len(vars)),
	}
	for i, v := range s.vars {
		if _, dup := s.index[v]; dup {
			panic(fmt.Sprintf("cube: duplicate variable %v in space", v))
		}
		s.index[v] = i
	}
	return s
}

// NewNamedSpace builds a space with display names for each variable.
func NewNamedSpace(vars []lit.Var, names []string) *Space {
	if len(names) != len(vars) {
		panic("cube: names/vars length mismatch")
	}
	s := NewSpace(vars)
	s.names = append([]string(nil), names...)
	return s
}

// Size returns the number of variables in the space.
func (s *Space) Size() int { return len(s.vars) }

// Vars returns the variables of the space in order (shared slice; do not
// modify).
func (s *Space) Vars() []lit.Var { return s.vars }

// Name returns the display name of position i.
func (s *Space) Name(i int) string {
	if s.names != nil {
		return s.names[i]
	}
	return s.vars[i].String()
}

// PosOf returns the position of variable v in the space, or -1.
func (s *Space) PosOf(v lit.Var) int {
	if i, ok := s.index[v]; ok {
		return i
	}
	return -1
}

// Cube is a partial assignment over a space: one ternary value per
// position. Unknown positions are free (don't-care) variables.
type Cube []lit.Tern

// FullCube returns a cube with every position free.
func (s *Space) FullCube() Cube { return make(Cube, len(s.vars)) }

// CubeOf builds a cube from a "01X-" string ('-' and 'x' also mean free).
func (s *Space) CubeOf(pattern string) Cube {
	if len(pattern) != len(s.vars) {
		panic(fmt.Sprintf("cube: pattern %q has %d positions, space has %d",
			pattern, len(pattern), len(s.vars)))
	}
	c := s.FullCube()
	for i, r := range pattern {
		switch r {
		case '0':
			c[i] = lit.False
		case '1':
			c[i] = lit.True
		case 'X', 'x', '-':
			c[i] = lit.Unknown
		default:
			panic(fmt.Sprintf("cube: bad pattern char %q", r))
		}
	}
	return c
}

// FromModel projects a total model (indexed by variable) onto the space.
func (s *Space) FromModel(model []bool) Cube {
	c := s.FullCube()
	for i, v := range s.vars {
		if int(v) < len(model) {
			c[i] = lit.TernOf(model[v])
		} else {
			c[i] = lit.False
		}
	}
	return c
}

// Clone returns a copy of the cube.
func (c Cube) Clone() Cube {
	out := make(Cube, len(c))
	copy(out, c)
	return out
}

// String renders the cube as a 01X pattern.
func (c Cube) String() string {
	return string(c.AppendPattern(make([]byte, 0, len(c))))
}

// AppendPattern appends the cube's 01X pattern to b and returns the
// extended slice.
func (c Cube) AppendPattern(b []byte) []byte {
	for _, t := range c {
		switch t {
		case lit.True:
			b = append(b, '1')
		case lit.False:
			b = append(b, '0')
		default:
			b = append(b, 'X')
		}
	}
	return b
}

// FreeVars returns the number of free (don't-care) positions.
func (c Cube) FreeVars() int {
	n := 0
	for _, t := range c {
		if t == lit.Unknown {
			n++
		}
	}
	return n
}

// Minterms returns the number of minterms covered (2^free). Panics above
// 62 free variables.
func (c Cube) Minterms() uint64 {
	f := c.FreeVars()
	if f > 62 {
		panic("cube: minterm count overflow")
	}
	return uint64(1) << uint(f)
}

// Contains reports whether c covers d (every minterm of d is in c). Both
// must be over the same space.
func (c Cube) Contains(d Cube) bool {
	for i := range c {
		if c[i] != lit.Unknown && c[i] != d[i] {
			return false
		}
	}
	return true
}

// ContainsMinterm reports whether the total assignment m (one bool per
// position) lies in c.
func (c Cube) ContainsMinterm(m []bool) bool {
	for i := range c {
		if c[i] != lit.Unknown && c[i] != lit.TernOf(m[i]) {
			return false
		}
	}
	return true
}

// Disjoint reports whether the cubes share no minterm.
func (c Cube) Disjoint(d Cube) bool {
	for i := range c {
		if c[i] != lit.Unknown && d[i] != lit.Unknown && c[i] != d[i] {
			return true
		}
	}
	return false
}

// Key returns a canonical comparable key for map deduplication.
func (c Cube) Key() string { return c.String() }

// less orders cubes lexicographically by pattern (0 < 1 < X).
func (c Cube) less(d Cube) bool {
	for i := range c {
		if c[i] != d[i] {
			return c[i] < d[i]
		}
	}
	return false
}

// Cover is a set (disjunction) of cubes over one space.
type Cover struct {
	space *Space
	cubes []Cube
}

// NewCover creates an empty cover over the space.
func NewCover(s *Space) *Cover { return &Cover{space: s} }

// Space returns the cover's variable space.
func (cv *Cover) Space() *Space { return cv.space }

// Add appends a cube (no containment check).
func (cv *Cover) Add(c Cube) {
	if len(c) != cv.space.Size() {
		panic("cube: cube/space size mismatch")
	}
	cv.cubes = append(cv.cubes, c)
}

// Len returns the number of cubes.
func (cv *Cover) Len() int { return len(cv.cubes) }

// Cubes returns the underlying cube slice (shared; do not modify).
func (cv *Cover) Cubes() []Cube { return cv.cubes }

// Contains reports whether any cube of the cover contains the minterm.
func (cv *Cover) Contains(m []bool) bool {
	for _, c := range cv.cubes {
		if c.ContainsMinterm(m) {
			return true
		}
	}
	return false
}

// Reduce removes duplicate cubes and cubes contained in another cube
// (single-cube containment only, not multi-cube coverage). Cubes are
// visited bigger-first in pattern order, so duplicates are adjacent and
// dropped without a scan, and a strictly containing cube can only be a
// kept cube with more free positions: the containment scan stops at the
// first kept cube no bigger than the candidate. On covers whose cubes
// share one width (projections of fully specified models) the pass is
// linear after the sort.
func (cv *Cover) Reduce() {
	type entry struct {
		c    Cube
		free int
	}
	es := make([]entry, len(cv.cubes))
	for i, c := range cv.cubes {
		es[i] = entry{c, c.FreeVars()}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].free != es[j].free {
			return es[i].free > es[j].free // bigger cubes first
		}
		return es[i].c.less(es[j].c)
	})
	kept := cv.cubes[:0]
	// bigger is the number of kept cubes with more free positions than
	// the current candidate (kept is ordered by descending width).
	bigger, keptFree := 0, -1
	for i, e := range es {
		if i > 0 && slices.Equal(e.c, es[i-1].c) {
			continue // the predecessor was kept or contained already
		}
		if e.free != keptFree {
			bigger, keptFree = len(kept), e.free
		}
		contained := false
		for _, k := range kept[:bigger] {
			if k.Contains(e.c) {
				contained = true
				break
			}
		}
		if !contained {
			kept = append(kept, e.c)
		}
	}
	cv.cubes = kept
}

// DisjointCount returns the minterm count of a cover whose cubes are
// pairwise disjoint: the plain sum of 2^free over its cubes, exact at
// any width. On overlapping cubes it overcounts — use a BDD or
// CountMinterms there.
func (cv *Cover) DisjointCount() *big.Int {
	byFree := make([]uint64, cv.space.Size()+1)
	for _, c := range cv.cubes {
		byFree[c.FreeVars()]++
	}
	total, term := new(big.Int), new(big.Int)
	for free, n := range byFree {
		if n > 0 {
			total.Add(total, term.Lsh(term.SetUint64(n), uint(free)))
		}
	}
	return total
}

// sharp computes w \ p as a list of disjoint cubes.
func sharp(w, p Cube) []Cube {
	if w.Disjoint(p) {
		return []Cube{w}
	}
	var out []Cube
	cur := w.Clone()
	for i := range w {
		if p[i] == lit.Unknown || w[i] != lit.Unknown {
			continue
		}
		// Split cur on variable i: the half disagreeing with p survives.
		frag := cur.Clone()
		frag[i] = p[i].Not()
		out = append(out, frag)
		cur[i] = p[i]
	}
	// cur is now w ∩ p (on the free-var positions); if w and p conflicted
	// on a fixed position we'd have returned above, so cur ⊆ p and is
	// dropped entirely.
	return out
}

// Equal reports whether two covers denote the same set of minterms, by
// mutual difference checks on up to 62 variables.
func (cv *Cover) Equal(other *Cover) bool {
	if cv.space.Size() != other.space.Size() {
		return false
	}
	return cv.coversAll(other) && other.coversAll(cv)
}

// coversAll reports whether every minterm of other is contained in cv.
func (cv *Cover) coversAll(other *Cover) bool {
	for _, c := range other.cubes {
		frags := []Cube{c.Clone()}
		for _, mine := range cv.cubes {
			var next []Cube
			for _, f := range frags {
				next = append(next, sharp(f, mine)...)
			}
			frags = next
			if len(frags) == 0 {
				break
			}
		}
		if len(frags) > 0 {
			return false
		}
	}
	return true
}

// String lists the cubes one per line.
func (cv *Cover) String() string {
	var sb strings.Builder
	for _, c := range cv.cubes {
		sb.WriteString(c.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SortedKeys returns the cube patterns sorted, for stable comparison in
// tests and tools.
func (cv *Cover) SortedKeys() []string {
	keys := make([]string, len(cv.cubes))
	for i, c := range cv.cubes {
		keys[i] = c.Key()
	}
	sort.Strings(keys)
	return keys
}
