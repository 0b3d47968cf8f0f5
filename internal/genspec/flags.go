package genspec

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"allsatpre/internal/budget"
	"allsatpre/internal/simplify"
	"allsatpre/internal/stats"
)

// BudgetFlags holds the resource-limit and observability flags shared by
// the CLI tools. Register them with AddBudgetFlags before flag.Parse,
// then build the budget and stats registry from the parsed values.
type BudgetFlags struct {
	// Timeout is the wall-clock budget (0 = unlimited).
	Timeout time.Duration
	// MaxConflicts / MaxDecisions / MaxCubes cap the SAT search and the
	// enumeration (0 = unlimited).
	MaxConflicts uint64
	MaxDecisions uint64
	MaxCubes     uint64
	// MaxBDDNodes caps the solution/engine BDD size (0 = unlimited).
	MaxBDDNodes int
	// Workers is the enumeration worker count (-workers). Defaults to
	// runtime.NumCPU(); 1 disables parallelism.
	Workers int
	// ShowStats requests a counter snapshot on stdout after the run.
	ShowStats bool
	// StatsHTTP, when non-empty, serves live JSON snapshots at this
	// address while the run is in flight.
	StatsHTTP string
}

// AddBudgetFlags registers -timeout, -max-conflicts, -max-decisions,
// -max-cubes, -max-bdd-nodes, -stats and -stats-http on fs and returns
// the handle to read after parsing.
func AddBudgetFlags(fs *flag.FlagSet) *BudgetFlags {
	bf := &BudgetFlags{}
	fs.DurationVar(&bf.Timeout, "timeout", 0,
		"wall-clock budget, e.g. 30s or 2m (0 = unlimited); on expiry the run reports TRUNCATED with a sound partial result")
	fs.Uint64Var(&bf.MaxConflicts, "max-conflicts", 0,
		"abort after this many SAT conflicts (0 = unlimited)")
	fs.Uint64Var(&bf.MaxDecisions, "max-decisions", 0,
		"abort after this many search decisions (0 = unlimited)")
	fs.Uint64Var(&bf.MaxCubes, "max-cubes", 0,
		"abort after enumerating this many cubes (0 = unlimited)")
	fs.IntVar(&bf.MaxBDDNodes, "max-bdd-nodes", 0,
		"abort when the BDD grows past this many nodes (0 = unlimited)")
	fs.IntVar(&bf.Workers, "workers", runtime.NumCPU(),
		"parallel enumeration workers (default = CPU count; 1 = sequential)")
	fs.BoolVar(&bf.ShowStats, "stats", false,
		"print a hierarchical counter snapshot after the run")
	fs.StringVar(&bf.StatsHTTP, "stats-http", "",
		"serve live JSON counter snapshots at this address (e.g. :8080) while running")
	return bf
}

// AddIncrementalFlag registers -incremental on fs: iterated reachability
// entry points then keep one persistent solver session and BDD manager
// across steps instead of re-encoding the circuit per step. Results are
// bit-identical to the non-incremental runs; budgets become
// session-global. Registered separately from AddBudgetFlags because only
// the reachability-iterating tools can honor it.
func AddIncrementalFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("incremental", false,
		"reuse one solver session and BDD manager across reachability steps (bit-identical results, session-global budgets)")
}

// AddSimplifyFlag registers -simplify on fs as a tri-state string
// (auto|on|off). Parse the value with SimplifyMode after fs.Parse. Auto
// follows each entry point's default, which is on for every SAT run,
// incremental sessions included.
func AddSimplifyFlag(fs *flag.FlagSet) *string {
	return fs.String("simplify", "auto",
		"projection-safe CNF preprocessing before enumeration: auto, on, or off (the enumerated state set is identical either way)")
}

// SimplifyMode parses an -simplify flag value.
func SimplifyMode(s string) (simplify.Mode, error) {
	switch s {
	case "auto", "":
		return simplify.Auto, nil
	case "on", "true", "1":
		return simplify.On, nil
	case "off", "false", "0":
		return simplify.Off, nil
	default:
		return simplify.Auto, fmt.Errorf("invalid -simplify value %q (want auto, on, or off)", s)
	}
}

// Budget builds the resource budget described by the parsed flags. The
// returned budget is relative (Timeout, not Deadline); the library
// materializes it once at the outermost entry point.
func (bf *BudgetFlags) Budget() budget.Budget {
	return budget.Budget{
		Timeout:      bf.Timeout,
		MaxConflicts: bf.MaxConflicts,
		MaxDecisions: bf.MaxDecisions,
		MaxCubes:     bf.MaxCubes,
		MaxBDDNodes:  bf.MaxBDDNodes,
	}
}

// StatsRegistry returns a registry when -stats or -stats-http was given
// (nil otherwise, which disables collection), starting the HTTP snapshot
// server when requested.
func (bf *BudgetFlags) StatsRegistry(name string) *stats.Registry {
	if !bf.ShowStats && bf.StatsHTTP == "" {
		return nil
	}
	reg := stats.NewRegistry(name)
	if bf.StatsHTTP != "" {
		ss := reg.Serve(bf.StatsHTTP)
		go func() {
			if err := <-ss.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "stats-http:", err)
			}
		}()
	}
	return reg
}

// Report writes the final snapshot to w when -stats was given.
func (bf *BudgetFlags) Report(w io.Writer, reg *stats.Registry) {
	if reg == nil || !bf.ShowStats {
		return
	}
	fmt.Fprintln(w, "--- stats ---")
	reg.Snapshot().WriteText(w)
}

// Truncated prints the loud truncation marker every CLI shares when a
// resource limit cut a run short: results are sound but incomplete, and
// must never be read as a complete answer.
func Truncated(w io.Writer, aborted bool, reason budget.Reason) {
	if !aborted {
		return
	}
	fmt.Fprintf(w, "*** TRUNCATED (%s): partial result — a sound under-approximation, NOT the complete answer ***\n", reason)
}
