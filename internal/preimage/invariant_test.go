package preimage

import (
	"testing"

	"allsatpre/internal/cube"
	"allsatpre/internal/gen"
	"allsatpre/internal/lit"
	"allsatpre/internal/trans"
)

func TestUnreachableProducesCheckableInvariant(t *testing.T) {
	c := gen.Johnson(4)
	init := trans.TargetFromPatterns(4, "0000")
	bad := trans.TargetFromPatterns(4, "0101")
	// Both layer sources of the backward sweep must certify.
	for _, incremental := range []bool{false, true} {
		res, err := CheckReachable(c, init, bad, -1, Options{Incremental: incremental})
		if err != nil {
			t.Fatal(err)
		}
		if res.Reachable || res.Invariant == nil {
			t.Fatalf("incremental=%v: expected unreachable with invariant: %+v", incremental, res)
		}
		if err := VerifyInvariant(c, init, bad, res.Invariant, Options{}); err != nil {
			t.Fatalf("incremental=%v: invariant failed verification: %v", incremental, err)
		}
		// Cross-engine verification of the same certificate.
		for _, eng := range allEngines {
			if err := VerifyInvariant(c, init, bad, res.Invariant, Options{Engine: eng}); err != nil {
				t.Fatalf("incremental=%v: engine %v rejects the invariant: %v", incremental, eng, err)
			}
		}
	}
}

func TestInvariantOnRandomUnreachableInstances(t *testing.T) {
	for seed := int64(80); seed < 86; seed++ {
		c := gen.SLike(gen.SLikeParams{Seed: seed, Inputs: 4, Latches: 4, Gates: 25})
		init := trans.TargetFromPatterns(4, "0000")
		bad := trans.TargetFromPatterns(4, "1111")
		res, err := CheckReachable(c, init, bad, -1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Reachable {
			continue
		}
		if res.Invariant == nil {
			t.Fatalf("seed %d: unreachable without invariant", seed)
		}
		if err := VerifyInvariant(c, init, bad, res.Invariant, Options{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestArbiterMutualExclusion(t *testing.T) {
	// The round-robin arbiter can never raise two grants simultaneously
	// from the idle state — proven by fixpoint with a checked invariant,
	// for every pair of grant lines.
	c := gen.Arbiter(3)
	init := trans.TargetFromPatterns(5, "00000")
	pairs := []string{"11XXX", "1X1XX", "X11XX"}
	for _, p := range pairs {
		bad := trans.TargetFromPatterns(5, p)
		res, err := CheckReachable(c, init, bad, -1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Reachable {
			t.Fatalf("mutual exclusion violated for %s", p)
		}
		if err := VerifyInvariant(c, init, bad, res.Invariant, Options{}); err != nil {
			t.Fatalf("invariant for %s: %v", p, err)
		}
	}
	// Sanity: a single grant IS reachable.
	one := trans.TargetFromPatterns(5, "1XXXX")
	res, err := CheckReachable(c, init, one, -1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable {
		t.Fatal("a single grant must be reachable")
	}
}

func TestVerifyInvariantRejectsBogusCertificates(t *testing.T) {
	c := gen.Johnson(4)
	sp := StateSpace(c)
	init := trans.TargetFromPatterns(4, "0000")
	bad := trans.TargetFromPatterns(4, "0101")

	// Does not contain init.
	noInit := cube.NewCover(sp)
	noInit.Add(sp.CubeOf("1XXX"))
	if err := VerifyInvariant(c, init, bad, noInit, Options{}); err == nil {
		t.Fatal("certificate missing init must be rejected")
	}
	// Intersects bad.
	withBad := cube.NewCover(sp)
	withBad.Add(sp.CubeOf("XXXX"))
	if err := VerifyInvariant(c, init, bad, withBad, Options{}); err == nil {
		t.Fatal("certificate covering bad must be rejected")
	}
	// Not inductive: {0000} alone steps to 1000 which is outside.
	notInd := cube.NewCover(sp)
	notInd.Add(sp.CubeOf("0000"))
	if err := VerifyInvariant(c, init, bad, notInd, Options{}); err == nil {
		t.Fatal("non-inductive certificate must be rejected")
	}
	_ = lit.Var(0)
}
