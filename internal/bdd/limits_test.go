package bdd

import (
	"testing"
	"time"

	"allsatpre/internal/budget"
	"allsatpre/internal/lit"
)

// buildParity builds the XOR of n variables — a function whose apply
// cache grows with every operation.
func buildParity(m *Manager, n int) Ref {
	r := False
	for v := 0; v < n; v++ {
		r = m.Xor(r, m.Var(lit.Var(v)))
	}
	return r
}

func TestCacheCapClearsAndCounts(t *testing.T) {
	m := New(16)
	m.cache.resize(8) // tiny cache: force evictions
	f := buildParity(m, 16)
	g := buildParity(m, 16)
	if f != g {
		t.Fatal("parity not canonical")
	}
	k := m.Kernel()
	if k.CacheLookups == 0 {
		t.Fatal("no cache lookups recorded")
	}
	if k.CacheEvictions == 0 {
		t.Fatal("tiny cache never evicted")
	}
	if k.CacheSize > k.CacheCap {
		t.Fatalf("cache occupancy %d exceeds its %d slots", k.CacheSize, k.CacheCap)
	}
	if k.CacheHits > k.CacheLookups {
		t.Fatalf("hits %d > lookups %d", k.CacheHits, k.CacheLookups)
	}
}

func TestCacheCapPreservesCorrectness(t *testing.T) {
	// Same computation with and without a punishing cache size must agree.
	free := New(12)
	capped := New(12)
	capped.cache.resize(4)
	ff := buildParity(free, 12)
	cf := buildParity(capped, 12)
	if free.SatCount(ff).Cmp(capped.SatCount(cf)) != 0 {
		t.Fatal("cache cap changed the function")
	}
	// Quantification under the cap, too.
	vars := []lit.Var{0, 1, 2}
	a := free.ExistsVars(ff, vars)
	b := capped.ExistsVars(cf, vars)
	if free.SatCount(a).Cmp(capped.SatCount(b)) != 0 {
		t.Fatal("cache cap changed quantification")
	}
}

func TestNodeCapAborts(t *testing.T) {
	m := New(24)
	m.SetLimits(16, nil) // far too small for a 24-var parity
	var reason budget.Reason
	func() {
		defer CatchAbort(&reason)
		buildParity(m, 24)
	}()
	if reason != budget.Nodes {
		t.Fatalf("reason %v, want Nodes", reason)
	}
}

func TestDeadlineAborts(t *testing.T) {
	m := New(20)
	check := budget.Budget{Deadline: time.Now().Add(-time.Second)}.Start()
	m.SetLimits(0, check)
	var reason budget.Reason
	func() {
		defer CatchAbort(&reason)
		buildParity(m, 20)
	}()
	if reason != budget.Deadline {
		t.Fatalf("reason %v, want Deadline", reason)
	}
}

func TestCatchAbortReraisesOtherPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("foreign panic swallowed")
		}
	}()
	var reason budget.Reason
	defer CatchAbort(&reason)
	panic("unrelated")
}
