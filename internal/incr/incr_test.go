package incr_test

import (
	"testing"

	"allsatpre/internal/bdd"
	"allsatpre/internal/cube"
	"allsatpre/internal/gen"
	"allsatpre/internal/incr"
	"allsatpre/internal/preimage"
	"allsatpre/internal/trans"
)

// preCanon re-expresses a cover positionally over the canonical space.
func preCanon(space *cube.Space, cv *cube.Cover) *cube.Cover {
	out := cube.NewCover(space)
	for _, c := range cv.Cubes() {
		out.Add(c.Clone())
	}
	return out
}

// TestSessionStepMatchesFreshCompute drives one backward session through
// a sequence of unrelated targets and checks, per step, that the
// session's state set matches a fresh preimage.Compute of the same
// target — and that across the retargets a nonzero number of learned
// clauses survived (the whole point of keeping the solver alive).
func TestSessionStepMatchesFreshCompute(t *testing.T) {
	c := gen.SLike(gen.SLikeParams{Seed: 2, Inputs: 8, Latches: 8, Gates: 120})
	targets := []string{"X1XXXXXX", "XX0XXXXX", "1XXXXX0X", "XXXX10XX"}

	for _, workers := range []int{1, 4} {
		sess, err := incr.NewBackward(c, incr.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		kept := 0
		for i, pat := range targets {
			target := trans.TargetFromPatterns(8, pat)
			st, err := sess.Step(target)
			if err != nil {
				t.Fatal(err)
			}
			if st.Aborted {
				t.Fatalf("w%d step %d: spurious abort (%v)", workers, i, st.Reason)
			}
			kept += st.Retire.LearnedKept

			ref, err := preimage.Compute(c, target, preimage.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// The session's ISOP of the quantified set and Compute's
			// projected cover are different covers of the same set:
			// compare sets and exact counts, not cube lists.
			stateSet := sess.StateSet(st.Set)
			count := sess.Manager().SatCountIn(stateSet, sess.StateVars())
			if count.Cmp(ref.Count) != 0 {
				t.Fatalf("w%d step %d: count %v, want %v", workers, i, count, ref.Count)
			}
			got := sess.Manager().ISOP(stateSet, sess.StateSpace())
			m := bdd.NewOrdered(ref.StateSpace.Vars())
			gotSet := m.FromCover(preCanon(ref.StateSpace, got))
			refSet := m.FromCover(ref.States)
			if gotSet != refSet {
				t.Fatalf("w%d step %d: state set differs from fresh Compute", workers, i)
			}
		}
		if kept == 0 {
			t.Errorf("w%d: no learned clauses survived any retarget", workers)
		}
		if sess.Workers() != workers {
			t.Errorf("w%d: session reports %d workers", workers, sess.Workers())
		}
		sess.Close()
	}
}

// TestSessionCloseContract pins the eviction hook the server's LRU
// store relies on: Close is idempotent, Closed reports it, and Step
// after Close fails with ErrClosed instead of touching torn-down state.
func TestSessionCloseContract(t *testing.T) {
	c := gen.SLike(gen.SLikeParams{Seed: 3, Inputs: 4, Latches: 4, Gates: 30})
	sess, err := incr.NewBackward(c, incr.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Closed() {
		t.Fatal("fresh session reports Closed")
	}
	if _, err := sess.Step(trans.TargetFromPatterns(4, "1XXX")); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	sess.Close() // idempotent
	if !sess.Closed() {
		t.Fatal("Closed() false after Close")
	}
	if _, err := sess.Step(trans.TargetFromPatterns(4, "0XXX")); err != incr.ErrClosed {
		t.Fatalf("Step after Close: err = %v, want ErrClosed", err)
	}
}

// TestForwardSessionStepMatchesFreshImage does the same for the forward
// direction against preimage.Image.
func TestForwardSessionStepMatchesFreshImage(t *testing.T) {
	c := gen.SLike(gen.SLikeParams{Seed: 1, Inputs: 6, Latches: 6, Gates: 60})
	inits := []string{"000000", "X1XXXX", "10XXXX"}

	sess, err := incr.Open(c, true, incr.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for i, pat := range inits {
		init := trans.TargetFromPatterns(6, pat)
		st, err := sess.Step(init)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := preimage.Image(c, init, preimage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Forward sets range over deduplicated next-state vars; compare
		// exact counts (cover expansion is exercised by the preimage
		// layer's own tests).
		got := sess.Manager().SatCountIn(st.Set, sess.StateVars())
		if got.Cmp(ref.Count) != 0 {
			t.Fatalf("init %d: image count %v, want %v", i, got, ref.Count)
		}
	}
}
