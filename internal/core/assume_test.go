package core

import (
	"math/rand"
	"testing"

	"allsatpre/internal/bdd"
	"allsatpre/internal/cnf"
	"allsatpre/internal/lit"
)

// TestEnumerateUnderPartitionsSolutionSet drives one reused enumerator
// through every assumption subcube of a random prefix and checks the
// guiding-path invariant: the per-subcube sets are pairwise disjoint and
// their union equals the sequential solution set. Reusing a single
// enumerator across subcubes also exercises memo and learned-clause
// sharing between calls.
func TestEnumerateUnderPartitionsSolutionSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3003))
	for iter := 0; iter < 120; iter++ {
		nVars := 4 + rng.Intn(7)
		f := randomFormula(rng, nVars, 1+rng.Intn(4*nVars), 3)
		nProj := 2 + rng.Intn(nVars-1)
		vars := rng.Perm(nVars)[:nProj]
		space := projSpace(vars...)

		full := New(nil, f.Clone(), space, DefaultOptions())
		fr := full.Enumerate()

		e := New(nil, f.Clone(), space, DefaultOptions())
		want := e.man.Import(full.man.Export(fr.Set))

		k := 1 + rng.Intn(2)
		if k > nProj {
			k = nProj
		}
		union := bdd.False
		for bits := 0; bits < 1<<k; bits++ {
			assumps := make([]lit.Lit, k)
			for i := 0; i < k; i++ {
				assumps[i] = lit.New(space.Vars()[i], bits&(1<<i) == 0)
			}
			sub := e.EnumerateUnder(assumps, 0)
			switch sub.Status {
			case SubSAT:
				if inter := e.man.And(union, sub.Set); inter != bdd.False {
					t.Fatalf("iter %d bits %d: subcube sets overlap", iter, bits)
				}
				union = e.man.Or(union, sub.Set)
			case SubUnsatAssumps:
				// The failed subset alone must already exclude every
				// solution.
				r := want
				for _, l := range sub.Failed {
					r = e.man.And(r, e.man.Lit(l))
				}
				if r != bdd.False {
					t.Fatalf("iter %d bits %d: failed set %v does not empty the solutions",
						iter, bits, sub.Failed)
				}
			case SubGlobalUnsat:
				if want != bdd.False {
					t.Fatalf("iter %d: global UNSAT reported for satisfiable formula", iter)
				}
			case SubSplit:
				t.Fatalf("iter %d: unexpected split with no cap", iter)
			}
		}
		if union != want {
			t.Fatalf("iter %d: union of subcube sets differs from sequential set", iter)
		}
	}
}

func TestEnumerateUnderFailedAssumptions(t *testing.T) {
	// (¬a ∨ ¬b) ∧ (c ∨ d): assuming a then b conflicts; the failed set
	// must name both conspirators, not report global UNSAT.
	f := cnf.New(4)
	f.AddClause(cnf.Clause{lit.Neg(0), lit.Neg(1)})
	f.AddClause(cnf.Clause{lit.Pos(2), lit.Pos(3)})
	space := projSpace(0, 1, 2, 3)
	e := New(nil, f, space, DefaultOptions())
	sub := e.EnumerateUnder([]lit.Lit{lit.Pos(0), lit.Pos(1)}, 0)
	if sub.Status != SubUnsatAssumps {
		t.Fatalf("status %v, want unsat-assumptions", sub.Status)
	}
	got := map[lit.Lit]bool{}
	for _, l := range sub.Failed {
		got[l] = true
	}
	if len(sub.Failed) != 2 || !got[lit.Pos(0)] || !got[lit.Pos(1)] {
		t.Fatalf("failed set %v, want {0, 1}", sub.Failed)
	}
	// The same enumerator must still serve the complementary subcube.
	ok := e.EnumerateUnder([]lit.Lit{lit.Pos(0), lit.Neg(1)}, 0)
	if ok.Status != SubSAT || ok.Set == bdd.False {
		t.Fatalf("follow-up subcube: status %v", ok.Status)
	}
}

func TestEnumerateUnderRootFalsifiedAssumption(t *testing.T) {
	// Unit (¬a) falsifies the assumption at the root: the failed set is
	// {a} alone — the formula, not any co-assumption, excludes it.
	f := cnf.New(3)
	f.AddClause(cnf.Clause{lit.Neg(0)})
	f.AddClause(cnf.Clause{lit.Pos(1), lit.Pos(2)})
	space := projSpace(0, 1, 2)
	e := New(nil, f, space, DefaultOptions())
	sub := e.EnumerateUnder([]lit.Lit{lit.Pos(1), lit.Pos(0)}, 0)
	if sub.Status != SubUnsatAssumps {
		t.Fatalf("status %v, want unsat-assumptions", sub.Status)
	}
	if len(sub.Failed) != 1 || sub.Failed[0] != lit.Pos(0) {
		t.Fatalf("failed set %v, want {+0}", sub.Failed)
	}
}

func TestEnumerateUnderGlobalUnsat(t *testing.T) {
	f := cnf.New(2)
	f.AddClause(cnf.Clause{lit.Pos(0)})
	f.AddClause(cnf.Clause{lit.Neg(0)})
	space := projSpace(0, 1)
	e := New(nil, f, space, DefaultOptions())
	sub := e.EnumerateUnder([]lit.Lit{lit.Pos(1)}, 0)
	if sub.Status != SubGlobalUnsat {
		t.Fatalf("status %v, want unsat-global", sub.Status)
	}
}

func TestEnumerateUnderSplitRequest(t *testing.T) {
	// (a ∨ b ∨ c) needs two nested decisions under no assumptions, so a
	// one-decision cap must trip; the uncapped retry then completes and
	// the result matches the sequential enumeration.
	f := cnf.New(3)
	f.AddClause(cnf.Clause{lit.Pos(0), lit.Pos(1), lit.Pos(2)})
	space := projSpace(0, 1, 2)
	e := New(nil, f.Clone(), space, DefaultOptions())
	sub := e.EnumerateUnder(nil, 1)
	if sub.Status != SubSplit {
		t.Fatalf("status %v, want split", sub.Status)
	}
	if sub.Aborted {
		t.Fatal("split request must not count as an abort")
	}
	retry := e.EnumerateUnder(nil, 0)
	if retry.Status != SubSAT {
		t.Fatalf("retry status %v", retry.Status)
	}
	want := EnumerateToResult(f.Clone(), space, DefaultOptions())
	if got := e.man.SatCount(retry.Set); got.Cmp(want.Count) != 0 {
		t.Fatalf("post-split count %v, want %v", got, want.Count)
	}
}
