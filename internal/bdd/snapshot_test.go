package bdd

import (
	"math/rand"
	"testing"

	"allsatpre/internal/cube"
	"allsatpre/internal/lit"
)

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(8)
		order := make([]lit.Var, n)
		for i := range order {
			order[i] = lit.Var(i)
		}
		src := NewOrdered(order)
		f := randomRef(src, rng, n, 4)
		snap := src.Export(f)

		// Same-order import into a fresh manager: equal set, equal count.
		dst := NewOrdered(order)
		g := dst.Import(snap)
		if src.SatCount(f).Cmp(dst.SatCount(g)) != 0 {
			t.Fatalf("iter %d: count mismatch after import", iter)
		}
		// Canonical form: exporting the import yields the same snapshot.
		snap2 := dst.Export(g)
		if len(snap2.vars) != len(snap.vars) || snap2.root != snap.root {
			t.Fatalf("iter %d: round-trip snapshot differs (%d/%d nodes)",
				iter, len(snap.vars), len(snap2.vars))
		}
		for i := range snap.vars {
			if snap.vars[i] != snap2.vars[i] || snap.lo[i] != snap2.lo[i] || snap.hi[i] != snap2.hi[i] {
				t.Fatalf("iter %d: node %d differs", iter, i)
			}
		}
		// Import into the originating manager must return the original ref.
		if back := src.Import(snap); back != f {
			t.Fatalf("iter %d: self-import %v, want %v", iter, back, f)
		}
	}
}

func TestSnapshotTerminals(t *testing.T) {
	m := New(3)
	for _, f := range []Ref{False, True} {
		s := m.Export(f)
		if len(s.vars) != 0 {
			t.Fatalf("terminal snapshot has %d nodes", len(s.vars))
		}
		if got := m.Import(s); got != f {
			t.Fatalf("terminal import %v, want %v", got, f)
		}
	}
}

func TestSnapshotReversedOrder(t *testing.T) {
	// Importing into a manager with the opposite variable order must fall
	// back to ITE and still denote the same set.
	n := 5
	fwd := make([]lit.Var, n)
	rev := make([]lit.Var, n)
	for i := 0; i < n; i++ {
		fwd[i] = lit.Var(i)
		rev[i] = lit.Var(n - 1 - i)
	}
	src := NewOrdered(fwd)
	rng := rand.New(rand.NewSource(7))
	sp := cube.NewSpace(fwd)
	for iter := 0; iter < 50; iter++ {
		f := randomRef(src, rng, n, 4)
		dst := NewOrdered(rev)
		g := dst.Import(src.Export(f))
		if src.SatCount(f).Cmp(dst.SatCountIn(g, fwd)) != 0 {
			t.Fatalf("iter %d: count mismatch across orders", iter)
		}
		// Spot-check pointwise equivalence via the cover.
		cv := src.ISOP(f, sp)
		cv2 := dst.ISOP(g, sp)
		if !cv.Equal(cv2) {
			t.Fatalf("iter %d: covers differ across orders", iter)
		}
	}
}
