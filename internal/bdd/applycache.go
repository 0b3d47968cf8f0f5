package bdd

// Direct-mapped apply cache. The previous map[opKey]Ref memo grew without
// bound between clears and was reallocated wholesale whenever it crossed
// the cache limit — a multi-megabyte make(map) on the hot path. This
// cache is a fixed power-of-two array of 20-byte entries: each (op, a, b,
// c) key hashes to exactly one slot, a colliding insert overwrites
// (lossy, à la CUDD), and wholesale invalidation is an O(1) generation
// bump instead of a reallocation.
//
// Lossiness cannot affect correctness: the cache only memoizes results
// that every apply recursion can recompute from scratch; an evicted entry
// costs recomputation time, never a wrong answer (see DESIGN.md §kernel).

const (
	// cacheGenBits is the width of the generation tag packed next to the
	// op code in cacheEntry.opgen. Generation 0 is reserved so that a
	// zeroed entry can never match a live key.
	cacheGenBits = 24
	cacheGenMask = 1<<cacheGenBits - 1

	// minCacheSlots/maxCacheSlots bound the cache array. The cache starts
	// at the minimum and doubles alongside unique-table rehashes (so tiny
	// managers — one per SatCount call site — stay allocation-lean) up to
	// the maximum; colliding entries overwrite each other (lossy), so the
	// ceiling bounds memory on long reachability runs at the price of
	// recomputing evicted entries.
	minCacheSlots = 1 << 8
	maxCacheSlots = 1 << 21
)

// cacheEntry is one direct-mapped slot: the operand triple, the result,
// and the packed op/generation word. 20 bytes, no padding.
type cacheEntry struct {
	a, b, c Ref
	res     Ref
	opgen   uint32 // op<<cacheGenBits | generation
}

type applyCache struct {
	entries []cacheEntry
	mask    uint64
	gen     uint32 // current generation, in [1, cacheGenMask]

	// Instrumentation: size is the occupancy of the current generation;
	// evictions counts live entries overwritten by a different key.
	size      int
	lookups   uint64
	hits      uint64
	evictions uint64
}

// init sizes the cache at n slots (a power of two), dropping any prior
// contents and counters' occupancy.
func (c *applyCache) init(n int) {
	c.entries = make([]cacheEntry, n)
	c.mask = uint64(n - 1)
	c.gen = 1
	c.size = 0
}

func cacheHash(op uint8, a, b, cc Ref) uint64 {
	x := uint64(uint32(a)) | uint64(uint32(b))<<32
	x ^= uint64(uint32(cc))*0xc2b2ae3d27d4eb4f ^ uint64(op)*0x165667b19e3779f9
	return mix64(x)
}

// get probes the single slot the key maps to.
func (c *applyCache) get(op uint8, a, b, cc Ref) (Ref, bool) {
	c.lookups++
	e := &c.entries[cacheHash(op, a, b, cc)&c.mask]
	if e.opgen == uint32(op)<<cacheGenBits|c.gen && e.a == a && e.b == b && e.c == cc {
		c.hits++
		return e.res, true
	}
	return 0, false
}

// put writes the slot unconditionally, overwriting whatever lived there.
func (c *applyCache) put(op uint8, a, b, cc Ref, r Ref) {
	e := &c.entries[cacheHash(op, a, b, cc)&c.mask]
	if e.opgen&cacheGenMask == c.gen {
		if e.a != a || e.b != b || e.c != cc || e.opgen>>cacheGenBits != uint32(op) {
			c.evictions++
		}
	} else {
		c.size++
	}
	e.a, e.b, e.c, e.res = a, b, cc, r
	e.opgen = uint32(op)<<cacheGenBits | c.gen
}

// invalidate drops every entry in O(1) by bumping the generation tag.
// On the (rare) 24-bit wrap the array is zeroed so stale tags from the
// previous cycle can never alias a live one.
func (c *applyCache) invalidate() {
	c.gen++
	if c.gen&cacheGenMask == 0 {
		clear(c.entries)
		c.gen = 1
	}
	c.size = 0
}

// resize reallocates the cache at n slots, dropping contents (the cache
// is lossy; dropped entries only cost recomputation).
func (c *applyCache) resize(n int) {
	c.entries = make([]cacheEntry, n)
	c.mask = uint64(n - 1)
	c.gen = 1
	c.size = 0
}
