// Command preimage computes the one-step preimage of a target state set
// of a sequential circuit.
//
// Usage:
//
//	preimage [-engine success|blocking|lifting|disjoint|bdd] [-inputs] [-cubes] \
//	         circuit.bench pattern [pattern ...]
//
// Each pattern is a "01X" string with one character per latch (declaration
// order). The circuit may also name a built-in generator, e.g.
// "counter:8", "shift:6", "lfsr:8", "johnson:6", "gray:5", "traffic",
// "slike:SEED,GATES,LATCHES,INPUTS".
package main

import (
	"flag"
	"fmt"
	"os"

	"allsatpre"
	"allsatpre/internal/genspec"
)

func main() {
	engine := flag.String("engine", "success", "engine: success | blocking | lifting | disjoint | bdd")
	withInputs := flag.Bool("inputs", false, "also report witness input assignments (the blocking, lifting and disjoint engines then search over (state, input) pairs instead of the states alone)")
	showCubes := flag.Bool("cubes", false, "print the preimage cubes")
	kstep := flag.Int("kstep", 0, "with k > 0, enumerate all states reaching the target within k steps (one unrolled all-SAT call; SAT engines only)")
	bf := genspec.AddBudgetFlags(flag.CommandLine)
	incremental := genspec.AddIncrementalFlag(flag.CommandLine)
	simplifyFlag := genspec.AddSimplifyFlag(flag.CommandLine)
	flag.Parse()
	if flag.NArg() < 2 {
		fmt.Fprintln(os.Stderr, "usage: preimage [flags] circuit.bench|spec pattern [pattern ...]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	c, err := genspec.Resolve(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	eng, err := genspec.Engine(*engine)
	if err != nil {
		fatal(err)
	}

	smode, err := genspec.SimplifyMode(*simplifyFlag)
	if err != nil {
		fatal(err)
	}

	reg := bf.StatsRegistry("preimage")
	opts := allsatpre.Options{Engine: eng, Budget: bf.Budget(), Parallel: bf.Workers,
		Incremental: *incremental, Simplify: smode, Stats: reg}
	var res *allsatpre.Result
	if *kstep > 0 {
		res, err = allsatpre.KStepPreimage(c, opts, *kstep, flag.Args()[1:]...)
	} else {
		opts.WithInputs = *withInputs
		res, err = allsatpre.Preimage(c, opts, flag.Args()[1:]...)
	}
	if err != nil {
		fatal(err)
	}
	st := c.Stats()
	fmt.Printf("circuit: %s\n", st)
	fmt.Printf("engine: %s\n", eng)
	genspec.Truncated(os.Stdout, res.Aborted, res.AbortReason)
	if res.Aborted {
		fmt.Printf("preimage states (partial): %s\n", res.Count)
	} else {
		fmt.Printf("preimage states: %s\n", res.Count)
	}
	fmt.Printf("cubes: %d\n", res.States.Len())
	if res.Stats.Decisions > 0 || res.Stats.Conflicts > 0 {
		fmt.Printf("decisions: %d  conflicts: %d  solutions: %d\n",
			res.Stats.Decisions, res.Stats.Conflicts, res.Stats.Solutions)
	}
	if res.Stats.CacheLookups > 0 {
		fmt.Printf("memo: %d/%d hits\n", res.Stats.CacheHits, res.Stats.CacheLookups)
	}
	fmt.Printf("bdd nodes: %d\n", res.BDDNodes)
	if *showCubes {
		fmt.Println("state cubes (latch order:", latchNames(c), "):")
		for _, cb := range res.States.Cubes() {
			fmt.Println(" ", cb)
		}
	}
	if *withInputs && res.Pairs != nil {
		fmt.Printf("witness (state,input) cubes: %d\n", res.Pairs.Len())
		if *showCubes {
			for _, cb := range res.Pairs.Cubes() {
				fmt.Println(" ", cb)
			}
		}
	}
	bf.Report(os.Stdout, reg)
}

func latchNames(c *allsatpre.Circuit) string {
	s := ""
	for i, gi := range c.Latches {
		if i > 0 {
			s += ","
		}
		s += c.Gates[gi].Name
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "preimage:", err)
	os.Exit(1)
}
