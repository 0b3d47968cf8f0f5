package circuit

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ParseBenchReference is the original bufio.Scanner BENCH parser, kept
// as the differential reference for ParseBench: on every input the two
// must return reflect.DeepEqual circuits or identical error strings.
func ParseBenchReference(name string, r io.Reader) (*Circuit, error) {
	type protoGate struct {
		typ    GateType
		fanins []string
		line   int
	}
	protos := make(map[string]protoGate) // defined signals
	var inputOrder, outputOrder []string
	var defOrder []string // definition order of non-input signals

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		up := strings.ToUpper(line)
		switch {
		case strings.HasPrefix(up, "INPUT"):
			sig, err := parenArg(line)
			if err != nil {
				return nil, fmt.Errorf("bench line %d: %v", lineNo, err)
			}
			if _, dup := protos[sig]; dup {
				return nil, fmt.Errorf("bench line %d: signal %q already defined", lineNo, sig)
			}
			protos[sig] = protoGate{typ: Input, line: lineNo}
			inputOrder = append(inputOrder, sig)
		case strings.HasPrefix(up, "OUTPUT"):
			sig, err := parenArg(line)
			if err != nil {
				return nil, fmt.Errorf("bench line %d: %v", lineNo, err)
			}
			outputOrder = append(outputOrder, sig)
		default:
			eq := strings.Index(line, "=")
			if eq < 0 {
				return nil, fmt.Errorf("bench line %d: cannot parse %q", lineNo, line)
			}
			sig := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			open := strings.Index(rhs, "(")
			close := strings.LastIndex(rhs, ")")
			if open < 0 || close < open {
				return nil, fmt.Errorf("bench line %d: malformed gate %q", lineNo, rhs)
			}
			tname := strings.ToUpper(strings.TrimSpace(rhs[:open]))
			typ, ok := benchType(tname)
			if !ok {
				return nil, fmt.Errorf("bench line %d: unknown gate type %q", lineNo, tname)
			}
			var fanins []string
			for _, tok := range strings.Split(rhs[open+1:close], ",") {
				tok = strings.TrimSpace(tok)
				if tok != "" {
					fanins = append(fanins, tok)
				}
			}
			mn, mx := typ.arity()
			if len(fanins) < mn || len(fanins) > mx {
				return nil, fmt.Errorf("bench line %d: %s with %d fanins", lineNo, tname, len(fanins))
			}
			if _, dup := protos[sig]; dup {
				return nil, fmt.Errorf("bench line %d: signal %q already defined", lineNo, sig)
			}
			protos[sig] = protoGate{typ: typ, fanins: fanins, line: lineNo}
			defOrder = append(defOrder, sig)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	// Check every referenced signal is defined. The original ranged over
	// the protos map, so with several undefined references the reported
	// one followed map order; any of them was a valid answer. The
	// reference pins the earliest line, which is the one ParseBench
	// reports.
	sigs := make([]string, 0, len(protos))
	for sig := range protos {
		sigs = append(sigs, sig)
	}
	sort.Slice(sigs, func(i, j int) bool { return protos[sigs[i]].line < protos[sigs[j]].line })
	for _, sig := range sigs {
		p := protos[sig]
		for _, f := range p.fanins {
			if _, ok := protos[f]; !ok {
				return nil, fmt.Errorf("bench line %d: signal %q uses undefined %q", p.line, sig, f)
			}
		}
	}
	for _, sig := range outputOrder {
		if _, ok := protos[sig]; !ok {
			return nil, fmt.Errorf("bench: OUTPUT(%s) is undefined", sig)
		}
	}

	// Build the circuit: inputs first, then DFFs (so feedback resolves),
	// then combinational gates in dependency order.
	c := New(name)
	for _, sig := range inputOrder {
		c.AddInput(sig)
	}
	// DFF placeholders.
	var dffSigs []string
	for _, sig := range defOrder {
		if protos[sig].typ == DFF {
			dffSigs = append(dffSigs, sig)
			idx := len(c.Gates)
			c.Gates = append(c.Gates, Gate{Name: sig, Type: DFF, Fanins: []int{0}})
			c.byName[sig] = idx
			c.Latches = append(c.Latches, idx)
		}
	}
	// Combinational gates in topological order via DFS over names.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var emit func(sig string) error
	emit = func(sig string) error {
		if _, done := c.byName[sig]; done {
			return nil
		}
		switch color[sig] {
		case gray:
			return fmt.Errorf("bench: combinational cycle through %q", sig)
		case black:
			return nil
		}
		color[sig] = gray
		p := protos[sig]
		for _, f := range p.fanins {
			if err := emit(f); err != nil {
				return err
			}
		}
		color[sig] = black
		fan := make([]int, len(p.fanins))
		for i, f := range p.fanins {
			fan[i] = c.byName[f]
		}
		c.AddGate(sig, p.typ, fan...)
		return nil
	}
	for _, sig := range defOrder {
		if protos[sig].typ == DFF {
			continue
		}
		if err := emit(sig); err != nil {
			return nil, err
		}
	}
	// Resolve DFF fanins.
	for _, sig := range dffSigs {
		d := protos[sig].fanins[0]
		c.Gates[c.byName[sig]].Fanins[0] = c.byName[d]
	}
	for _, sig := range outputOrder {
		c.MarkOutput(c.byName[sig])
	}
	return c, nil
}
