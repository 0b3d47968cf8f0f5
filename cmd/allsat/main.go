// Command allsat enumerates all solutions of a DIMACS CNF file, projected
// onto a variable set, using any of the four all-SAT engines.
//
// Usage:
//
//	allsat [-engine success|blocking|lifting|disjoint] [-proj 1,2,5] [-cubes] file.cnf
//
// The projection defaults to a "c proj ..." comment line in the file, or
// all variables. With "-" as the file, stdin is read.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"allsatpre"
	"allsatpre/internal/cnf"
	"allsatpre/internal/genspec"
)

func main() {
	engine := flag.String("engine", "success", "engine: success | blocking | lifting | disjoint")
	projFlag := flag.String("proj", "", "comma-separated 1-based projection variables")
	forgetFlag := flag.String("forget", "", "comma-separated 1-based variables to quantify out (projection = all others); the result is ∃forget.F as a cube cover")
	showCubes := flag.Bool("cubes", false, "print the solution cubes")
	simplifyFlag := genspec.AddSimplifyFlag(flag.CommandLine)
	bf := genspec.AddBudgetFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: allsat [flags] file.cnf|-")
		flag.PrintDefaults()
		os.Exit(2)
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

	eng, err := genspec.Engine(*engine)
	if err != nil {
		fatal(err)
	}

	parseVars := func(s string) []int {
		var out []int
		for _, tok := range strings.Split(s, ",") {
			d, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				fatal(fmt.Errorf("bad variable %q", tok))
			}
			out = append(out, d)
		}
		return out
	}
	var proj []int
	if *projFlag != "" {
		proj = parseVars(*projFlag)
	}
	data, err := io.ReadAll(in)
	if err != nil {
		fatal(err)
	}
	if *forgetFlag != "" {
		if proj != nil {
			fatal(fmt.Errorf("-proj and -forget are mutually exclusive"))
		}
		// Projection = every variable not forgotten; needs the variable
		// count, so parse once up front.
		f, _, err := cnf.ParseDimacs(bytes.NewReader(data))
		if err != nil {
			fatal(err)
		}
		drop := map[int]bool{}
		for _, d := range parseVars(*forgetFlag) {
			drop[d] = true
		}
		for v := 1; v <= f.NumVars; v++ {
			if !drop[v] {
				proj = append(proj, v)
			}
		}
	}

	smode, err := genspec.SimplifyMode(*simplifyFlag)
	if err != nil {
		fatal(err)
	}

	reg := bf.StatsRegistry("allsat")
	res, err := allsatpre.EnumerateDimacsOpts(bytes.NewReader(data), allsatpre.DimacsOptions{
		Engine: eng, Proj: proj, Simplify: smode,
		Budget: bf.Budget(), Workers: bf.Workers, Stats: reg,
	})
	if err != nil {
		fatal(err)
	}
	genspec.Truncated(os.Stdout, res.Aborted, res.Reason)
	if res.Aborted {
		fmt.Printf("solutions (projected minterms, partial): %s\n", res.Count)
	} else {
		fmt.Printf("solutions (projected minterms): %s\n", res.Count)
	}
	fmt.Printf("cubes: %d\n", res.Cover.Len())
	fmt.Printf("decisions: %d  propagations: %d  conflicts: %d\n",
		res.Stats.Decisions, res.Stats.Propagations, res.Stats.Conflicts)
	if res.Stats.CacheLookups > 0 {
		fmt.Printf("memo: %d/%d hits\n", res.Stats.CacheHits, res.Stats.CacheLookups)
	}
	if *showCubes {
		for _, c := range res.Cover.Cubes() {
			fmt.Println(c)
		}
	}
	bf.Report(os.Stdout, reg)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "allsat:", err)
	os.Exit(1)
}
