package circuit

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// ParseBench reads a netlist in ISCAS-89 BENCH format:
//
//	# comment
//	INPUT(a)
//	OUTPUT(f)
//	f = AND(a, b)
//	q = DFF(d)
//
// Signal definitions may appear in any order (DFF feedback loops are the
// norm). Gate type names are case-insensitive.
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	data, err := io.ReadAll(r)
	return parseBench(name, string(data), err)
}

// ParseBenchString parses BENCH text. The circuit's signal names are
// substrings of s.
func ParseBenchString(name, s string) (*Circuit, error) {
	return parseBench(name, s, nil)
}

// maxBenchLine caps a line's length as the bufio.Scanner the parser was
// first built on did: a line this long or longer fails with
// bufio.ErrTooLong.
const maxBenchLine = 16 * 1024 * 1024

// benchSig is one signal of a BENCH text, indexed by first appearance.
// Its fanin signal ids are benchParser.fanins[lo:hi].
type benchSig struct {
	typ     GateType
	defined bool
	line    int
	lo, hi  int
}

// benchParser holds the single pass's state: one name→id map (handed to
// the circuit as its byName index once ids become gate indexes), the
// signals by id, and one arena holding every gate's fanins.
type benchParser struct {
	ids     map[string]int
	names   []string
	sigs    []benchSig
	fanins  []int
	inputs  []int // INPUT ids in declaration order
	outputs []int // OUTPUT ids in declaration order
	defs    []int // gate-defined ids in line order
}

// id interns a signal name.
func (p *benchParser) id(name string) int {
	if id, ok := p.ids[name]; ok {
		return id
	}
	id := len(p.names)
	p.ids[name] = id
	p.names = append(p.names, name)
	p.sigs = append(p.sigs, benchSig{})
	return id
}

// parseBench parses src in one pass over its lines, then resolves and
// orders the gates. readErr is the error that cut src short, if any;
// like a scanner error it is reported after src's own line errors.
func parseBench(name, src string, readErr error) (*Circuit, error) {
	// Size the signal tables from the line count, capped at one signal
	// per 8 bytes (about the shortest definition line, "a=ONE()" and its
	// newline) so that blank lines cannot inflate them. It is only a hint.
	sigs := min(strings.Count(src, "\n")+1, len(src)/8+1)
	p := &benchParser{
		ids:    make(map[string]int, sigs),
		names:  make([]string, 0, sigs),
		sigs:   make([]benchSig, 0, sigs),
		fanins: make([]int, 0, sigs+strings.Count(src, ",")),
	}
	for lineNo := 1; len(src) > 0; lineNo++ {
		line := src
		if nl := strings.IndexByte(src, '\n'); nl >= 0 {
			line, src = src[:nl], src[nl+1:]
		} else {
			src = ""
		}
		if len(line) >= maxBenchLine {
			return nil, bufio.ErrTooLong
		}
		if err := p.line(strings.TrimSpace(line), lineNo); err != nil {
			return nil, err
		}
	}
	if readErr != nil {
		return nil, readErr
	}

	// Check every referenced signal is defined.
	for _, id := range p.defs {
		s := p.sigs[id]
		for _, f := range p.fanins[s.lo:s.hi] {
			if !p.sigs[f].defined {
				return nil, fmt.Errorf("bench line %d: signal %q uses undefined %q", s.line, p.names[id], p.names[f])
			}
		}
	}
	for _, id := range p.outputs {
		if !p.sigs[id].defined {
			return nil, fmt.Errorf("bench: OUTPUT(%s) is undefined", p.names[id])
		}
	}
	return p.build(name)
}

// line parses one trimmed line.
func (p *benchParser) line(line string, lineNo int) error {
	if line == "" || line[0] == '#' {
		return nil
	}
	ascii := isASCII(line)
	switch {
	case hasKeyword(line, "INPUT", ascii):
		sig, err := parenArg(line)
		if err != nil {
			return fmt.Errorf("bench line %d: %v", lineNo, err)
		}
		id := p.id(sig)
		if p.sigs[id].defined {
			return fmt.Errorf("bench line %d: signal %q already defined", lineNo, sig)
		}
		p.sigs[id] = benchSig{typ: Input, defined: true, line: lineNo}
		p.inputs = append(p.inputs, id)
	case hasKeyword(line, "OUTPUT", ascii):
		sig, err := parenArg(line)
		if err != nil {
			return fmt.Errorf("bench line %d: %v", lineNo, err)
		}
		p.outputs = append(p.outputs, p.id(sig))
	default:
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			return fmt.Errorf("bench line %d: cannot parse %q", lineNo, line)
		}
		sig := strings.TrimSpace(line[:eq])
		rhs := strings.TrimSpace(line[eq+1:])
		open := strings.IndexByte(rhs, '(')
		close := strings.LastIndexByte(rhs, ')')
		if open < 0 || close < open {
			return fmt.Errorf("bench line %d: malformed gate %q", lineNo, rhs)
		}
		// Type names are upper-case in practice, and then ToUpper does
		// not allocate.
		tname := strings.ToUpper(strings.TrimSpace(rhs[:open]))
		typ, ok := benchType(tname)
		if !ok {
			return fmt.Errorf("bench line %d: unknown gate type %q", lineNo, tname)
		}
		lo := len(p.fanins)
		for args := rhs[open+1 : close]; ; {
			tok, rest, more := strings.Cut(args, ",")
			if tok = strings.TrimSpace(tok); tok != "" {
				p.fanins = append(p.fanins, p.id(tok))
			}
			if !more {
				break
			}
			args = rest
		}
		n := len(p.fanins) - lo
		if mn, mx := typ.arity(); n < mn || n > mx {
			return fmt.Errorf("bench line %d: %s with %d fanins", lineNo, tname, n)
		}
		id := p.id(sig)
		if p.sigs[id].defined {
			return fmt.Errorf("bench line %d: signal %q already defined", lineNo, sig)
		}
		p.sigs[id] = benchSig{typ: typ, defined: true, line: lineNo, lo: lo, hi: len(p.fanins)}
		p.defs = append(p.defs, id)
	}
	return nil
}

// build lays the gates out as inputs, then DFFs (so feedback resolves),
// then combinational gates in depth-first dependency order, and turns
// the fanin arena's signal ids into gate indexes in place.
func (p *benchParser) build(name string) (*Circuit, error) {
	c := &Circuit{Name: name, byName: p.ids}
	if n := len(p.inputs) + len(p.defs); n > 0 {
		c.Gates = make([]Gate, 0, n)
	}
	gate := make([]int, len(p.sigs)) // signal id → gate index + 1
	add := func(id int) {
		s := p.sigs[id]
		g := Gate{Name: p.names[id], Type: s.typ}
		if s.hi > s.lo {
			g.Fanins = p.fanins[s.lo:s.hi:s.hi]
		}
		c.Gates = append(c.Gates, g)
		gate[id] = len(c.Gates)
	}
	for _, id := range p.inputs {
		add(id)
		c.Inputs = append(c.Inputs, gate[id]-1)
	}
	for _, id := range p.defs {
		if p.sigs[id].typ == DFF {
			add(id)
			c.Latches = append(c.Latches, gate[id]-1)
		}
	}
	// Depth-first over the fanins, emitting a gate after all of them. A
	// fanin still on the stack closes a combinational cycle.
	onStack := make([]bool, len(p.sigs))
	type frame struct{ id, next int }
	var stack []frame
	for _, root := range p.defs {
		if gate[root] != 0 {
			continue
		}
		onStack[root] = true
		stack = append(stack[:0], frame{id: root})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			s := p.sigs[f.id]
			if f.next < s.hi-s.lo {
				d := p.fanins[s.lo+f.next]
				f.next++
				if gate[d] != 0 {
					continue
				}
				if onStack[d] {
					return nil, fmt.Errorf("bench: combinational cycle through %q", p.names[d])
				}
				onStack[d] = true
				stack = append(stack, frame{id: d})
				continue
			}
			onStack[f.id] = false
			add(f.id)
			stack = stack[:len(stack)-1]
		}
	}
	for i, f := range p.fanins {
		p.fanins[i] = gate[f] - 1
	}
	for sig, id := range p.ids {
		p.ids[sig] = gate[id] - 1
	}
	for _, id := range p.outputs {
		c.Outputs = append(c.Outputs, gate[id]-1)
	}
	return c, nil
}

// isASCII reports whether s has no byte ≥ 0x80.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// hasKeyword reports whether strings.ToUpper(line) starts with the
// upper-case keyword kw. ASCII lines are compared in place; any other
// line takes the strings.ToUpper path, since 'ı' and 'ſ' upper-case to
// 'I' and 'S'.
func hasKeyword(line, kw string, ascii bool) bool {
	if !ascii {
		return strings.HasPrefix(strings.ToUpper(line), kw)
	}
	return len(line) >= len(kw) && strings.EqualFold(line[:len(kw)], kw)
}

func parenArg(line string) (string, error) {
	open := strings.Index(line, "(")
	close := strings.LastIndex(line, ")")
	if open < 0 || close < open {
		return "", fmt.Errorf("malformed declaration %q", line)
	}
	sig := strings.TrimSpace(line[open+1 : close])
	if sig == "" {
		return "", fmt.Errorf("empty signal name in %q", line)
	}
	return sig, nil
}

func benchType(name string) (GateType, bool) {
	switch name {
	case "AND":
		return And, true
	case "NAND":
		return Nand, true
	case "OR":
		return Or, true
	case "NOR":
		return Nor, true
	case "XOR":
		return Xor, true
	case "XNOR":
		return Xnor, true
	case "NOT", "INV":
		return Not, true
	case "BUF", "BUFF":
		return Buf, true
	case "DFF", "FF":
		return DFF, true
	case "CONST0", "GND", "ZERO":
		return Const0, true
	case "CONST1", "VDD", "ONE":
		return Const1, true
	}
	return 0, false
}

// WriteBench writes the circuit in BENCH format. Gates are emitted in
// index order; the output is re-parsable by ParseBench.
func WriteBench(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", c.Name)
	for _, i := range c.Inputs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Gates[i].Name)
	}
	for _, i := range c.Outputs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Gates[i].Name)
	}
	for _, g := range c.Gates {
		switch g.Type {
		case Input:
			continue
		case Const0:
			fmt.Fprintf(bw, "%s = CONST0()\n", g.Name)
		case Const1:
			fmt.Fprintf(bw, "%s = CONST1()\n", g.Name)
		default:
			names := make([]string, len(g.Fanins))
			for k, f := range g.Fanins {
				names[k] = c.Gates[f].Name
			}
			fmt.Fprintf(bw, "%s = %s(%s)\n", g.Name, g.Type, strings.Join(names, ", "))
		}
	}
	return bw.Flush()
}

// BenchString renders the circuit as BENCH text.
func BenchString(c *Circuit) string {
	var sb strings.Builder
	_ = WriteBench(&sb, c)
	return sb.String()
}
