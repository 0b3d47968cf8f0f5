package bdd

// KernelStats is a point-in-time snapshot of the manager's two hot
// structures — the open-addressed unique table and the direct-mapped
// apply cache — for the stats registry and the experiment harness.
type KernelStats struct {
	// Nodes is the total node count including the two terminals.
	Nodes int
	// UniqueCap is the unique table's slot count; Nodes-2 live entries
	// over UniqueCap slots is the load factor.
	UniqueCap int
	// UniqueLookups / UniqueProbes: find calls and total slots inspected
	// across them; their ratio is the average probe length.
	UniqueLookups, UniqueProbes uint64
	// Rehashes counts unique-table doublings.
	Rehashes uint64
	// CacheCap / CacheSize: apply-cache slots and current occupancy.
	CacheCap, CacheSize int
	// CacheLookups / CacheHits / CacheEvictions: apply-cache activity;
	// an eviction is a live entry overwritten by a colliding key.
	CacheLookups, CacheHits, CacheEvictions uint64
}

// Kernel snapshots the manager's kernel gauges.
func (m *Manager) Kernel() KernelStats {
	return KernelStats{
		Nodes:          len(m.nodes),
		UniqueCap:      len(m.unique.slots),
		UniqueLookups:  m.unique.lookups,
		UniqueProbes:   m.unique.probes,
		Rehashes:       m.unique.rehashes,
		CacheCap:       len(m.cache.entries),
		CacheSize:      m.cache.size,
		CacheLookups:   m.cache.lookups,
		CacheHits:      m.cache.hits,
		CacheEvictions: m.cache.evictions,
	}
}

// LoadFactor is the unique table's live-entry fraction.
func (k KernelStats) LoadFactor() float64 {
	if k.UniqueCap == 0 {
		return 0
	}
	live := k.Nodes - 2
	if live < 0 {
		live = 0
	}
	return float64(live) / float64(k.UniqueCap)
}

// AvgProbes is the mean probe-chain length per unique-table lookup.
func (k KernelStats) AvgProbes() float64 {
	if k.UniqueLookups == 0 {
		return 0
	}
	return float64(k.UniqueProbes) / float64(k.UniqueLookups)
}

// Merge folds another snapshot into k: counters add, sizes keep the
// maximum — the shape wanted when combining per-slice or per-step
// managers into one run total.
func (k *KernelStats) Merge(o KernelStats) {
	if o.Nodes > k.Nodes {
		k.Nodes = o.Nodes
	}
	if o.UniqueCap > k.UniqueCap {
		k.UniqueCap = o.UniqueCap
	}
	if o.CacheCap > k.CacheCap {
		k.CacheCap = o.CacheCap
	}
	if o.CacheSize > k.CacheSize {
		k.CacheSize = o.CacheSize
	}
	k.UniqueLookups += o.UniqueLookups
	k.UniqueProbes += o.UniqueProbes
	k.Rehashes += o.Rehashes
	k.CacheLookups += o.CacheLookups
	k.CacheHits += o.CacheHits
	k.CacheEvictions += o.CacheEvictions
}
