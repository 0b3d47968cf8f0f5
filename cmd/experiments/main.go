// Command experiments regenerates every table and figure of the
// evaluation (DESIGN.md §4) and prints them. Use -only to run a subset
// and -csv for machine-readable output.
//
// With -stats, the final report includes the BDD kernel gauges recorded
// per engine run (DESIGN.md §kernel): unique-table load factor and mean
// probe length (kernel-load-factor, kernel-avg-probes), rehash count, and
// apply-cache lookups/hits/evictions and occupancy — the numbers behind
// the scripts/bench.sh trajectory.
//
// Usage:
//
//	experiments [-only table1,fig2] [-csv] [-steps N] [-stats]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"unicode"

	"allsatpre/internal/experiments"
	"allsatpre/internal/genspec"
)

func main() {
	only := flag.String("only", "", "comma-separated subset: table1..table7, fig1..fig4")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	steps := flag.Int("steps", experiments.ReachSteps, "step cap for table3 reachability")
	bf := genspec.AddBudgetFlags(flag.CommandLine)
	incremental := genspec.AddIncrementalFlag(flag.CommandLine)
	simplifyFlag := genspec.AddSimplifyFlag(flag.CommandLine)
	flag.Parse()

	smode, err := genspec.SimplifyMode(*simplifyFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	// Budgeted rows truncate loudly inside the tables (">N TRUNCATED(...)"
	// cells) instead of hanging the harness on a wedged workload.
	experiments.RunBudget = bf.Budget()
	experiments.RunWorkers = bf.Workers
	experiments.RunIncremental = *incremental
	experiments.RunSimplify = smode
	reg := bf.StatsRegistry("experiments")
	experiments.RunStats = reg

	names := strings.FieldsFunc(*only, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
	tables, err := experiments.Select(experiments.Tables(*steps), names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: -only:", err)
		os.Exit(2)
	}
	for _, t := range tables {
		tb, _ := t.Run()
		if *csv {
			fmt.Printf("# %s\n", tb.Title)
			tb.RenderCSV(os.Stdout)
		} else {
			tb.Render(os.Stdout)
		}
		fmt.Println()
	}
	bf.Report(os.Stdout, reg)
}
