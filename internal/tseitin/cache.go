package tseitin

import (
	"sync"

	"allsatpre/internal/circuit"
)

// The encode cache short-circuits re-encoding the same circuit object:
// reachability loops build one instance per step from an unchanged
// circuit, and the parallel BMC sweep encodes per worker. A handful of
// entries suffices — the working set is "the circuits of the current
// run", not a corpus.
const encodeCacheSize = 8

var (
	encodeCacheMu    sync.Mutex
	encodeCache      [encodeCacheSize]encodeCacheEntry
	encodeCacheClock int
)

type encodeCacheEntry struct {
	c     *circuit.Circuit
	gates int
	enc   *Encoding
}

// EncodeCached returns the Tseitin encoding of c, reusing a previous
// encoding when the same circuit value was encoded recently. The cache
// is keyed by pointer identity with the gate count as a staleness guard,
// so callers must not mutate a circuit after encoding it (the rest of
// the pipeline already assumes frozen circuits).
//
// The returned Encoding is shared: treat it — including Enc.F and the
// NextStateCone clauses — as immutable. Copy the clauses before adding
// to them (trans.NewInstance does).
func EncodeCached(c *circuit.Circuit) (*Encoding, error) {
	encodeCacheMu.Lock()
	for i := range encodeCache {
		ce := &encodeCache[i]
		if ce.c == c && ce.gates == c.NumGates() {
			enc := ce.enc
			encodeCacheMu.Unlock()
			return enc, nil
		}
	}
	encodeCacheMu.Unlock()
	enc, err := Encode(c)
	if err != nil {
		return nil, err
	}
	encodeCacheMu.Lock()
	encodeCache[encodeCacheClock%encodeCacheSize] = encodeCacheEntry{
		c: c, gates: c.NumGates(), enc: enc,
	}
	encodeCacheClock++
	encodeCacheMu.Unlock()
	return enc, nil
}
