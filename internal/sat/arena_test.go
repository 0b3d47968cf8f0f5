package sat

// Property/fuzz tests for the clause arena: random interleavings of
// solving, reduction, simplification, and forced compaction must keep
// every live watcher and reason cref valid and leave the solver's
// answers (and models) identical to a brute-force truth-table oracle.

import (
	"math/rand"
	"testing"

	"allsatpre/internal/lit"
)

// checkArenaInvariants audits the cref graph after any mutation:
//
//   - every cref held by a watch list, the clause lists, or a trail
//     reason addresses a well-formed header inside the arena;
//   - binary watch entries agree with their clause's literals;
//   - long watch entries watch one of the clause's first two literals;
//   - trail reasons are never deleted clauses;
//   - the tier counters and the live learnt footprint match a recount.
func checkArenaInvariants(t *testing.T, s *Solver) {
	t.Helper()
	validate := func(c cref) []uint32 {
		if int(c) >= len(s.ca.data) {
			t.Fatalf("cref %d outside arena (len %d)", c, len(s.ca.data))
		}
		h := s.ca.data[c]
		if h&caReloc != 0 {
			t.Fatalf("cref %d still carries a relocation forward", c)
		}
		sz := int(h >> caSizeShift)
		if sz < 2 {
			t.Fatalf("cref %d has size %d < 2", c, sz)
		}
		end := int(c+hdrWords(h)) + sz
		if end > len(s.ca.data) {
			t.Fatalf("cref %d (size %d) overruns arena end %d", c, sz, len(s.ca.data))
		}
		return s.ca.lits(c)
	}
	for li := range s.binWatches {
		p := lit.Lit(li)
		for _, w := range s.binWatches[li] {
			ls := validate(cref(w.c))
			if len(ls) != 2 {
				t.Fatalf("binary watch on non-binary clause %d (size %d)", w.c, len(ls))
			}
			if s.ca.isDeleted(cref(w.c)) {
				t.Fatalf("binary watch holds deleted clause %d", w.c)
			}
			// The entry fires when p falsifies, implying `other`: the
			// clause must be exactly {¬p, other} in either order.
			neg := uint32(p.Not())
			if !(ls[0] == neg && ls[1] == w.other) && !(ls[1] == neg && ls[0] == w.other) {
				t.Fatalf("binary watch %v/{other=%d} disagrees with clause lits %v", p, w.other, ls)
			}
		}
	}
	for li := range s.watches {
		p := lit.Lit(li)
		for _, w := range s.watches[li] {
			c := cref(w.c)
			ls := validate(c)
			if s.ca.isDeleted(c) {
				continue // lazily dropped; must still be in-bounds (above)
			}
			neg := uint32(p.Not())
			if ls[0] != neg && ls[1] != neg {
				t.Fatalf("watcher for %v not among first two lits of clause %d: %v", p, c, ls)
			}
		}
	}
	for _, l := range s.trail {
		r := s.reason[l.Var()]
		if r == crefUndef {
			continue
		}
		validate(r)
		if s.ca.isDeleted(r) {
			t.Fatalf("reason of %v is a deleted clause", l)
		}
	}
	for _, c := range s.clauses {
		validate(c)
	}
	nCore, nTier2, nLocal := 0, 0, 0
	var words uint64
	for _, c := range s.learnts {
		validate(c)
		if s.ca.isDeleted(c) {
			t.Fatalf("learnt list holds deleted clause %d", c)
		}
		switch s.ca.tier(c) {
		case tierCore:
			nCore++
		case tierTwo:
			nTier2++
		case tierLocal:
			nLocal++
		default:
			t.Fatalf("learnt clause %d has tier %d", c, s.ca.tier(c))
		}
		words += uint64(s.ca.words(c))
	}
	if nCore != s.nCore || nTier2 != s.nTier2 || nLocal != s.nLocal {
		t.Fatalf("tier counters (%d,%d,%d) != recount (%d,%d,%d)",
			s.nCore, s.nTier2, s.nLocal, nCore, nTier2, nLocal)
	}
	if words != s.learntWords {
		t.Fatalf("learntWords %d != recount %d", s.learntWords, words)
	}
}

// randomCNFWithModels builds a random 3-CNF (some clauses shorter) and
// its truth-table model set over nVars ≤ 16 variables.
func randomCNFWithModels(rng *rand.Rand, nVars, nClauses int) (clauses [][]lit.Lit, models []uint32) {
	for i := 0; i < nClauses; i++ {
		k := 3
		if rng.Intn(8) == 0 {
			k = 2
		}
		c := make([]lit.Lit, 0, k)
		for j := 0; j < k; j++ {
			c = append(c, lit.New(lit.Var(rng.Intn(nVars)), rng.Intn(2) == 1))
		}
		clauses = append(clauses, c)
	}
	for m := uint32(0); m < 1<<nVars; m++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				bit := m>>uint(l.Var())&1 == 1
				if bit != l.Sign() { // Sign()==true means negated
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			models = append(models, m)
		}
	}
	return clauses, models
}

func modelMatches(m uint32, assumptions []lit.Lit) bool {
	for _, a := range assumptions {
		bit := m>>uint(a.Var())&1 == 1
		if bit == a.Sign() {
			return false
		}
	}
	return true
}

// TestArenaCompactionFuzz interleaves Solve (under random assumptions),
// Simplify, reduceDB, and unconditional garbageCollect in random orders,
// auditing the cref graph after every step and checking each answer
// against the truth table.
func TestArenaCompactionFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(0xa7e4a))
	iters := 120
	if testing.Short() {
		iters = 30
	}
	for iter := 0; iter < iters; iter++ {
		nVars := 5 + rng.Intn(8) // 5..12
		nClauses := 3*nVars + rng.Intn(3*nVars)
		clauses, models := randomCNFWithModels(rng, nVars, nClauses)

		opts := DefaultOptions()
		opts.RestartBase = 8 // restart often: more clause churn per op
		opts.Seed = int64(iter)
		s := New(opts)
		s.EnsureVars(nVars)
		okAdd := true
		for _, c := range clauses {
			if !s.AddClause(c...) {
				okAdd = false
				break
			}
		}
		checkArenaInvariants(t, s)
		if !okAdd {
			if len(models) != 0 {
				t.Fatalf("iter %d: AddClause reported UNSAT but %d models exist", iter, len(models))
			}
			continue
		}

		for op := 0; op < 20; op++ {
			switch rng.Intn(10) {
			case 0:
				if s.okay {
					s.Simplify()
				}
			case 1:
				if s.okay {
					s.reduceDB()
				}
			case 2:
				s.garbageCollect()
			default:
				var assumptions []lit.Lit
				used := map[lit.Var]bool{}
				for len(assumptions) < rng.Intn(4) {
					v := lit.Var(rng.Intn(nVars))
					if used[v] {
						continue
					}
					used[v] = true
					assumptions = append(assumptions, lit.New(v, rng.Intn(2) == 1))
				}
				st := s.Solve(assumptions...)
				want := Unsat
				for _, m := range models {
					if modelMatches(m, assumptions) {
						want = Sat
						break
					}
				}
				if st != want {
					t.Fatalf("iter %d op %d: Solve(%v) = %v, oracle says %v", iter, op, assumptions, st, want)
				}
				if st == Sat {
					model := s.Model()
					for _, c := range clauses {
						sat := false
						for _, l := range c {
							if model[l.Var()] != l.Sign() {
								sat = true
								break
							}
						}
						if !sat {
							t.Fatalf("iter %d op %d: model %v violates clause %v", iter, op, model, c)
						}
					}
					for _, a := range assumptions {
						if model[a.Var()] == a.Sign() {
							t.Fatalf("iter %d op %d: model violates assumption %v", iter, op, a)
						}
					}
				}
			}
			checkArenaInvariants(t, s)
			if !s.okay {
				break
			}
		}
	}
}

// TestArenaGCPreservesClausePositions pins the contract ChronoEnum's
// occurrence index depends on: garbage collection rewrites the
// problem-clause list in place, position-preserving, through the shared
// backing array.
func TestArenaGCPreservesClausePositions(t *testing.T) {
	s := NewDefault()
	s.EnsureVars(6)
	v := func(i int) lit.Lit { return lit.New(lit.Var(i), false) }
	nv := func(i int) lit.Lit { return lit.New(lit.Var(i), true) }
	s.AddClause(v(0), v(1), v(2))
	s.AddClause(nv(0), v(3), v(4))
	s.AddClause(v(1), nv(3), v(5))
	shared := s.clauses
	var before [][]lit.Lit
	for _, c := range shared {
		before = append(before, s.ca.litsBuf(c, nil))
	}
	s.garbageCollect()
	if len(shared) != 3 {
		t.Fatalf("shared view length changed: %d", len(shared))
	}
	for i, c := range shared {
		got := s.ca.litsBuf(c, nil)
		want := before[i]
		if len(got) != len(want) {
			t.Fatalf("clause %d changed length after GC", i)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("clause %d literal %d changed after GC: %v -> %v", i, j, want, got)
			}
		}
	}
	checkArenaInvariants(t, s)
}

// TestArenaRelocReclaimsWaste drives real deletion through the tier
// machinery (demote twice, then delete) and checks compaction reclaims
// the tombstoned words.
func TestArenaWasteAccounting(t *testing.T) {
	s := NewDefault()
	s.EnsureVars(4)
	a := lit.New(0, false)
	b := lit.New(1, false)
	c := lit.New(2, false)
	s.AddClause(a, b, c)
	// Hand-install a local-tier learnt and delete it.
	cr := s.installLearnt([]lit.Lit{a.Not(), b, c}, tier2LBD+1)
	if got := s.ca.tier(cr); got != tierLocal {
		t.Fatalf("tier = %d, want local", got)
	}
	wordsBefore := len(s.ca.data)
	s.ca.clearUsed(cr) // strip the learn-time protection
	s.removeLearnt(cr)
	if s.ca.wasted == 0 {
		t.Fatal("deletion booked no waste")
	}
	s.learnts = s.learnts[:0]
	s.garbageCollect()
	if s.ca.wasted != 0 {
		t.Fatalf("wasted = %d after GC, want 0", s.ca.wasted)
	}
	if len(s.ca.data) >= wordsBefore {
		t.Fatalf("arena did not shrink: %d -> %d words", wordsBefore, len(s.ca.data))
	}
	checkArenaInvariants(t, s)
}
