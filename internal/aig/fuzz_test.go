package aig

import (
	"testing"
)

// FuzzParseAiger checks the AIGER parser never panics and accepted graphs
// survive a write/re-parse round trip with the same interface.
func FuzzParseAiger(f *testing.F) {
	seeds := []string{
		"aag 0 0 0 0 0\n",
		"aag 1 1 0 1 0\n2\n2\n",
		"aag 3 1 1 1 1\n2\n4 6\n6\n6 2 4\n",
		"aag 4 1 1 1 2\n2\n4 9\n4\n6 3 5\n8 2 4\ni0 en\nl0 q\no0 q\nc\nnote\n",
		"aag 2 1 0 0 1\n2\n4 6 2\n", // ordering violation
		"aig 1 0 0 0 0\n",           // binary header
		"aag x\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := parseAigerText("fuzz", src)
		if err != nil {
			return
		}
		text := aigerText(g)
		g2, err := parseAigerText("fuzz2", text)
		if err != nil {
			t.Fatalf("round trip rejected: %v\noriginal:\n%s\nwritten:\n%s", err, src, text)
		}
		if len(g2.inputs) != len(g.inputs) || len(g2.latches) != len(g.latches) ||
			len(g2.outputs) != len(g.outputs) {
			t.Fatalf("interface changed in round trip")
		}
		// Behaviour preserved on the all-false vector.
		st := make([]bool, len(g.latches))
		in := make([]bool, len(g.inputs))
		o1, n1 := g.Eval(st, in)
		o2, n2 := g2.Eval(st, in)
		for k := range o1 {
			if o1[k] != o2[k] {
				t.Fatalf("output %d changed in round trip", k)
			}
		}
		for k := range n1 {
			if n1[k] != n2[k] {
				t.Fatalf("next state %d changed in round trip", k)
			}
		}
	})
}
