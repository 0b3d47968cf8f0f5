package aig

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteAiger emits the graph in AIGER ASCII format ("aag"). Node indices
// are compacted so inputs come first, then latches, then ANDs, per the
// AIGER specification. Symbol-table entries carry the original names.
func WriteAiger(w io.Writer, g *Graph) error {
	// Compact index map: AIGER variable index per node.
	varOf := make([]uint32, len(g.nodes))
	next := uint32(1)
	for _, l := range g.inputs {
		varOf[l.Node()] = next
		next++
	}
	for _, l := range g.latches {
		varOf[l.Node()] = next
		next++
	}
	var ands []uint32
	for i, nd := range g.nodes {
		if nd.kind == kindAnd {
			varOf[i] = next
			next++
			ands = append(ands, uint32(i))
		}
	}
	relit := func(l Lit) uint32 {
		return varOf[l.Node()]<<1 | uint32(l&1)
	}

	bw := bufio.NewWriter(w)
	maxVar := next - 1
	fmt.Fprintf(bw, "aag %d %d %d %d %d\n",
		maxVar, len(g.inputs), len(g.latches), len(g.outputs), len(ands))
	for _, l := range g.inputs {
		fmt.Fprintf(bw, "%d\n", relit(l))
	}
	for k, l := range g.latches {
		fmt.Fprintf(bw, "%d %d\n", relit(l), relit(g.nextFn[k]))
	}
	for _, l := range g.outputs {
		fmt.Fprintf(bw, "%d\n", relit(l))
	}
	for _, n := range ands {
		nd := g.nodes[n]
		fmt.Fprintf(bw, "%d %d %d\n", varOf[n]<<1, relit(nd.f0), relit(nd.f1))
	}
	for k, name := range g.inputNames {
		fmt.Fprintf(bw, "i%d %s\n", k, name)
	}
	for k, name := range g.latchNames {
		fmt.Fprintf(bw, "l%d %s\n", k, name)
	}
	for k, name := range g.outputNames {
		fmt.Fprintf(bw, "o%d %s\n", k, name)
	}
	fmt.Fprintf(bw, "c\n%s\n", g.Name)
	return bw.Flush()
}

// ParseAiger reads an AIGER ASCII ("aag") file. Latch reset values and
// the binary "aig" format are not supported; the MILOA header must be
// consistent. Symbol-table names are honoured when present.
func ParseAiger(name string, r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("aiger: empty input")
	}
	header := strings.Fields(strings.TrimSpace(sc.Text()))
	if len(header) != 6 || header[0] != "aag" {
		return nil, fmt.Errorf("aiger: bad header %q (only ASCII aag supported)", sc.Text())
	}
	nums := make([]int, 5)
	for i := 0; i < 5; i++ {
		v, err := strconv.Atoi(header[i+1])
		if err != nil || v < 0 {
			return nil, fmt.Errorf("aiger: bad header field %q", header[i+1])
		}
		nums[i] = v
	}
	maxVar, nI, nL, nO, nA := nums[0], nums[1], nums[2], nums[3], nums[4]
	if nI+nL+nA > maxVar {
		return nil, fmt.Errorf("aiger: header M=%d too small for I+L+A=%d", maxVar, nI+nL+nA)
	}

	readLits := func(n int, what string) ([][]int, error) {
		out := make([][]int, 0, n)
		for i := 0; i < n; i++ {
			if !sc.Scan() {
				return nil, fmt.Errorf("aiger: unexpected EOF in %s section", what)
			}
			fields := strings.Fields(strings.TrimSpace(sc.Text()))
			row := make([]int, len(fields))
			for j, f := range fields {
				v, err := strconv.Atoi(f)
				if err != nil || v < 0 || v > 2*maxVar+1 {
					return nil, fmt.Errorf("aiger: bad literal %q in %s section", f, what)
				}
				row[j] = v
			}
			out = append(out, row)
		}
		return out, nil
	}

	inputRows, err := readLits(nI, "input")
	if err != nil {
		return nil, err
	}
	latchRows, err := readLits(nL, "latch")
	if err != nil {
		return nil, err
	}
	outputRows, err := readLits(nO, "output")
	if err != nil {
		return nil, err
	}
	andRows, err := readLits(nA, "and")
	if err != nil {
		return nil, err
	}

	g := New(name)
	// Map AIGER variable -> graph literal of its positive phase.
	lits := make([]Lit, maxVar+1)
	for i := range lits {
		lits[i] = False // unreferenced variables default to constant
	}
	defined := make([]bool, maxVar+1)
	defined[0] = true

	for k, row := range inputRows {
		if len(row) != 1 || row[0]&1 != 0 || row[0] == 0 {
			return nil, fmt.Errorf("aiger: input %d must be a positive non-constant literal", k)
		}
		v := row[0] >> 1
		if defined[v] {
			return nil, fmt.Errorf("aiger: variable %d defined twice", v)
		}
		defined[v] = true
		lits[v] = g.AddInput(fmt.Sprintf("i%d", k))
	}
	for k, row := range latchRows {
		// AIGER 1.9 allows an optional third field with the reset value;
		// only the default (0) is representable in the circuit model.
		if len(row) == 3 && row[2] == 0 {
			row = row[:2]
			latchRows[k] = row
		}
		if len(row) != 2 || row[0]&1 != 0 || row[0] == 0 {
			return nil, fmt.Errorf("aiger: latch %d malformed (non-zero reset values are unsupported)", k)
		}
		v := row[0] >> 1
		if defined[v] {
			return nil, fmt.Errorf("aiger: variable %d defined twice", v)
		}
		defined[v] = true
		lits[v] = g.AddLatch(fmt.Sprintf("l%d", k))
	}
	// AND definitions may reference later ANDs in legal AIGER only in
	// topological order (the format requires LHS > RHS), so one pass works.
	for k, row := range andRows {
		if len(row) != 3 || row[0]&1 != 0 || row[0] == 0 {
			return nil, fmt.Errorf("aiger: and %d malformed", k)
		}
		v := row[0] >> 1
		if defined[v] {
			return nil, fmt.Errorf("aiger: variable %d defined twice", v)
		}
		if row[1] >= row[0] || row[2] >= row[0] {
			return nil, fmt.Errorf("aiger: and %d violates topological ordering", k)
		}
		defined[v] = true
		a := lits[row[1]>>1].XorNeg(row[1]&1 == 1)
		b := lits[row[2]>>1].XorNeg(row[2]&1 == 1)
		lits[v] = g.And(a, b)
	}
	for k, row := range latchRows {
		nv := row[1]
		if !defined[nv>>1] {
			return nil, fmt.Errorf("aiger: latch %d next-state uses undefined variable %d", k, nv>>1)
		}
		g.SetNext(k, lits[nv>>1].XorNeg(nv&1 == 1))
	}
	for k, row := range outputRows {
		if len(row) != 1 {
			return nil, fmt.Errorf("aiger: output %d malformed", k)
		}
		if !defined[row[0]>>1] {
			return nil, fmt.Errorf("aiger: output %d uses undefined variable %d", k, row[0]>>1)
		}
		g.AddOutput(fmt.Sprintf("o%d", k), lits[row[0]>>1].XorNeg(row[0]&1 == 1))
	}

	// Symbol table and comments.
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "c" {
			break
		}
		if line == "" {
			continue
		}
		kind := line[0]
		rest := line[1:]
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			continue
		}
		idx, err := strconv.Atoi(rest[:sp])
		if err != nil || idx < 0 {
			continue
		}
		sym := strings.TrimSpace(rest[sp+1:])
		switch kind {
		case 'i':
			if idx < len(g.inputNames) {
				g.inputNames[idx] = sym
			}
		case 'l':
			if idx < len(g.latchNames) {
				g.latchNames[idx] = sym
			}
		case 'o':
			if idx < len(g.outputNames) {
				g.outputNames[idx] = sym
			}
		}
	}
	return g, sc.Err()
}
