// Command satcheck is a plain DIMACS SAT solver front end with DRUP
// proof emission and built-in proof checking.
//
// Usage:
//
//	satcheck [-workers N] [-proof out.drup] [-verify] [-model] file.cnf|-
//
// With -workers > 1 a portfolio of solvers races on the same formula,
// each diversified by decision seed and random-decision frequency; the
// first definitive answer wins and cancels the rest. The winner writes
// its own DRUP proof, so -proof and -verify compose with the portfolio.
//
// Exit status: 10 satisfiable, 20 unsatisfiable (the conventional SAT
// competition codes), 1 on error.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"

	"allsatpre/internal/budget"
	"allsatpre/internal/cnf"
	"allsatpre/internal/genspec"
	"allsatpre/internal/lit"
	rt "allsatpre/internal/runtime"
	"allsatpre/internal/sat"
	"allsatpre/internal/simplify"
)

func main() {
	proofPath := flag.String("proof", "", "write a DRUP proof here on UNSAT")
	verify := flag.Bool("verify", false, "self-check the DRUP proof after an UNSAT answer")
	model := flag.Bool("model", false, "print the model as a DIMACS v-line on SAT")
	workers := flag.Int("workers", runtime.NumCPU(), "portfolio size (default = CPU count; 1 = single solver)")
	simplifyFlag := genspec.AddSimplifyFlag(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: satcheck [flags] file.cnf|-")
		flag.PrintDefaults()
		os.Exit(1)
	}

	var in io.Reader
	if flag.Arg(0) == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	formula, _, err := cnf.ParseDimacs(in)
	if err != nil {
		fatal(err)
	}

	wantProof := *proofPath != "" || *verify
	smode, err := genspec.SimplifyMode(*simplifyFlag)
	if err != nil {
		fatal(err)
	}
	// Unlike the enumeration tools, a decision procedure defaults the
	// preprocessor off: a DRUP proof must derive from the original clause
	// database, so -simplify=on and proof emission are mutually exclusive,
	// and auto keeps the formula the proof checker will see.
	var sres *simplify.Result
	if smode == simplify.On {
		if wantProof {
			fatal(fmt.Errorf("-simplify=on is incompatible with -proof/-verify: the DRUP proof must be over the original formula"))
		}
		// No projection to protect here, so nothing is frozen: full
		// variable elimination, with the model reconstructed from the
		// elimination stack afterwards.
		sres = simplify.Run(formula, func(lit.Var) bool { return false }, simplify.Options{})
		fmt.Printf("c simplify: vars-eliminated=%d units=%d subsumed=%d strengthened=%d clauses %d->%d\n",
			sres.Stats.VarsEliminated, sres.Stats.UnitsFixed, sres.Stats.ClausesSubsumed,
			sres.Stats.LitsStrengthened, sres.Stats.ClausesBefore, sres.Stats.ClausesAfter)
	}
	st, proofBuf, stats := solve(formula, *workers, wantProof)
	if st == sat.Sat && sres != nil {
		// Extend the simplified-formula model over the eliminated
		// variables so the printed v-line satisfies the original formula.
		stats.model = sres.Extend(stats.model)
	}
	fmt.Printf("c vars=%d clauses=%d decisions=%d conflicts=%d propagations=%d\n",
		formula.NumVars, len(formula.Clauses), stats.decisions, stats.conflicts, stats.propagations)

	switch st {
	case sat.Sat:
		fmt.Println("s SATISFIABLE")
		if *model {
			fmt.Print("v ")
			for v := 0; v < formula.NumVars; v++ {
				d := v + 1
				if !stats.model[v] {
					d = -d
				}
				fmt.Printf("%d ", d)
			}
			fmt.Println("0")
		}
		os.Exit(10)
	case sat.Unsat:
		fmt.Println("s UNSATISFIABLE")
		if *proofPath != "" {
			if err := os.WriteFile(*proofPath, proofBuf.Bytes(), 0o644); err != nil {
				fatal(err)
			}
		}
		if *verify {
			if err := sat.CheckDRUP(formula, bytes.NewReader(proofBuf.Bytes())); err != nil {
				fatal(fmt.Errorf("proof self-check FAILED: %w", err))
			}
			fmt.Println("c DRUP proof verified")
		}
		os.Exit(20)
	default:
		fmt.Println("s UNKNOWN")
		os.Exit(1)
	}
}

type answer struct {
	status       sat.Status
	model        []bool
	decisions    uint64
	conflicts    uint64
	propagations uint64
}

// solve runs either a single solver or a racing portfolio and returns the
// winning status, the winner's proof buffer, and the winner's statistics.
func solve(formula *cnf.Formula, workers int, wantProof bool) (sat.Status, *bytes.Buffer, answer) {
	if workers <= 1 {
		buf := &bytes.Buffer{}
		s := sat.FromFormula(formula, sat.DefaultOptions())
		if wantProof {
			s.SetProofWriter(buf)
		}
		st := s.Solve()
		s.FlushProof()
		return st, buf, fromSolver(st, s, formula)
	}

	// One runtime.Group job per member on a private scheduler. The first
	// definitive verdict aborts the group, whose context every member
	// threads into its budget, so the rest stop at their next poll and
	// report Unknown; a member still queued then does not start. On a
	// host with fewer cores than members, the members queue, member 0
	// first.
	type result struct {
		status sat.Status
		buf    *bytes.Buffer
		ans    answer
	}
	g := rt.NewGroup(nil, context.Background(), workers)
	results := make([]result, workers)
	var won atomic.Int32
	won.Store(-1)
	jobs := make([]func(), workers)
	for i := range jobs {
		opts := sat.DefaultOptions()
		// Diversify the portfolio: member 0 keeps the default strategy so a
		// portfolio run is never slower to a verdict than the single solver
		// on the same schedule; the rest explore with shifted seeds and an
		// increasing dose of random decisions.
		if i > 0 {
			opts.Seed += int64(i) * 0x9e3779b9
			opts.RandomFreq = 0.01 * float64(i)
		}
		opts.Budget = budget.Budget{Ctx: g.Ctx()}
		jobs[i] = func() {
			if g.Aborted() {
				return
			}
			buf := &bytes.Buffer{}
			s := sat.FromFormula(formula, opts)
			if wantProof {
				s.SetProofWriter(buf)
			}
			st := s.Solve()
			s.FlushProof()
			results[i] = result{st, buf, fromSolver(st, s, formula)}
			if st == sat.Sat || st == sat.Unsat {
				won.CompareAndSwap(-1, int32(i))
				g.Abort(budget.Cancelled)
			}
		}
	}
	g.Go(jobs...)
	g.Wait()
	// With no verdict no member was skipped, and each reports Unknown.
	r := results[max(won.Load(), 0)]
	return r.status, r.buf, r.ans
}

func fromSolver(st sat.Status, s *sat.Solver, formula *cnf.Formula) answer {
	stats := s.Stats()
	ans := answer{
		status:       st,
		decisions:    stats.Decisions,
		conflicts:    stats.Conflicts,
		propagations: stats.Propagations,
	}
	if st == sat.Sat {
		m := s.Model()
		ans.model = make([]bool, formula.NumVars)
		copy(ans.model, m)
	}
	return ans
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "satcheck:", err)
	os.Exit(1)
}
