package cnf

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"allsatpre/internal/lit"
)

// ParseDimacs reads a CNF formula in DIMACS format. It tolerates comment
// lines anywhere, missing "p cnf" headers (variable count inferred), and
// clauses spanning multiple lines. A "c proj <v1> <v2> ..." comment line
// (1-based DIMACS variable numbers) declares projection variables, returned
// as the second result; projection comments are an informal convention used
// by the all-SAT tools in this repository.
func ParseDimacs(r io.Reader) (*Formula, []lit.Var, error) {
	f := New(0)
	var proj []lit.Var
	var cur Clause
	declaredVars, declaredClauses := -1, -1

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "c"):
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "proj" {
				for _, tok := range fields[2:] {
					d, err := strconv.Atoi(tok)
					if err != nil || d <= 0 {
						return nil, nil, fmt.Errorf("dimacs line %d: bad projection var %q", lineNo, tok)
					}
					proj = append(proj, lit.Var(d-1))
				}
			}
			continue
		case strings.HasPrefix(line, "p"):
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, nil, fmt.Errorf("dimacs line %d: malformed problem line %q", lineNo, line)
			}
			var err1, err2 error
			declaredVars, err1 = strconv.Atoi(fields[2])
			declaredClauses, err2 = strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || declaredVars < 0 || declaredClauses < 0 {
				return nil, nil, fmt.Errorf("dimacs line %d: malformed problem line %q", lineNo, line)
			}
			continue
		}
		for _, tok := range strings.Fields(line) {
			d, err := strconv.Atoi(tok)
			// The solver stores a literal in 32 bits; a larger variable
			// would overflow the literal encoding into a negative index.
			if err != nil || d > math.MaxInt32 || d < -math.MaxInt32 {
				return nil, nil, fmt.Errorf("dimacs line %d: bad literal %q", lineNo, tok)
			}
			if d == 0 {
				f.AddClause(cur)
				cur = nil
				continue
			}
			cur = append(cur, lit.FromDimacs(d))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(cur) > 0 {
		f.AddClause(cur)
	}
	if declaredVars > f.NumVars {
		f.NumVars = declaredVars
	}
	if declaredClauses >= 0 && declaredClauses != len(f.Clauses) {
		return nil, nil, fmt.Errorf("dimacs: header declares %d clauses, found %d", declaredClauses, len(f.Clauses))
	}
	for _, v := range proj {
		if int(v) >= f.NumVars {
			return nil, nil, fmt.Errorf("dimacs: projection variable %d out of range", int(v)+1)
		}
	}
	return f, proj, nil
}

// Projection resolves the variables an enumeration projects onto: the
// explicit 1-based DIMACS list when it is non-nil, else the file's
// "c proj" line, else every variable. Each must lie in 1..numVars and be
// listed once, since a cube space holds a variable at one position.
func Projection(explicit []int, fileProj []lit.Var, numVars int) ([]lit.Var, error) {
	proj := fileProj
	switch {
	case explicit != nil:
		proj = make([]lit.Var, len(explicit))
		for i, d := range explicit {
			if d <= 0 || d > numVars {
				return nil, fmt.Errorf("projection variable %d out of range 1..%d", d, numVars)
			}
			proj[i] = lit.Var(d - 1)
		}
	case len(fileProj) == 0:
		proj = make([]lit.Var, numVars)
		for v := range proj {
			proj[v] = lit.Var(v)
		}
	}
	seen := make([]bool, numVars)
	for _, v := range proj {
		if v < 0 || int(v) >= numVars {
			return nil, fmt.Errorf("projection variable %d out of range 1..%d", int(v)+1, numVars)
		}
		if seen[v] {
			return nil, fmt.Errorf("projection variable %d listed twice", int(v)+1)
		}
		seen[v] = true
	}
	return proj, nil
}

// ParseDimacsString parses a DIMACS formula from a string.
func ParseDimacsString(s string) (*Formula, []lit.Var, error) {
	return ParseDimacs(strings.NewReader(s))
}

// WriteDimacs writes the formula in DIMACS format. If proj is non-empty a
// "c proj ..." line is emitted first.
func WriteDimacs(w io.Writer, f *Formula, proj []lit.Var) error {
	bw := bufio.NewWriter(w)
	if len(proj) > 0 {
		fmt.Fprintf(bw, "c proj")
		for _, v := range proj {
			fmt.Fprintf(bw, " %d", int(v)+1)
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintf(bw, "p cnf %d %d\n", f.NumVars, len(f.Clauses))
	for _, c := range f.Clauses {
		for _, l := range c {
			fmt.Fprintf(bw, "%d ", l.Dimacs())
		}
		fmt.Fprintln(bw, "0")
	}
	return bw.Flush()
}

// DimacsString renders the formula as a DIMACS string.
func DimacsString(f *Formula, proj []lit.Var) string {
	var sb strings.Builder
	_ = WriteDimacs(&sb, f, proj)
	return sb.String()
}
