package cnf

import (
	"testing"
)

// FuzzParseDimacs checks the DIMACS parser never panics and accepted
// formulas survive a write/re-parse round trip with identical clauses.
func FuzzParseDimacs(f *testing.F) {
	seeds := []string{
		"p cnf 3 2\n1 2 0\n-3 0\n",
		"c proj 1 2\np cnf 2 1\n1 -2 0\n",
		"1 2 3 0\n-1 0",
		"p cnf 0 0\n",
		"p cnf 2 9\n1 0\n", // count mismatch
		"zz\n",
		"c only a comment\n",
		"p cnf 1 1\n0\n",           // empty clause
		"p cnf 1000000000000000 0", // variable count past the literal encoding
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		formula, proj, err := ParseDimacsString(src)
		if err != nil {
			return
		}
		text := DimacsString(formula, proj)
		f2, p2, err := ParseDimacsString(text)
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, text)
		}
		if f2.NumVars != formula.NumVars || len(f2.Clauses) != len(formula.Clauses) ||
			len(p2) != len(proj) {
			t.Fatalf("round trip changed the formula")
		}
	})
}
