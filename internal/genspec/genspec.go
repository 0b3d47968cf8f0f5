// Package genspec resolves the command-line circuit and engine
// specification strings shared by the CLI tools: a spec is either a path
// to a BENCH file or a generator description like "counter:8",
// "lfsr:8,0,3,4,5" or "slike:SEED,GATES,LATCHES,INPUTS".
package genspec

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"allsatpre/internal/aig"
	"allsatpre/internal/circuit"
	"allsatpre/internal/gen"
	"allsatpre/internal/preimage"
)

// Resolve turns a circuit spec into a netlist. Specs with a ':' (or the
// bare word "traffic") select a generator; anything else is treated as a
// BENCH file path.
func Resolve(spec string) (*circuit.Circuit, error) {
	if spec == "traffic" {
		return gen.TrafficLight(), nil
	}
	name, argStr, found := strings.Cut(spec, ":")
	if !found {
		f, err := os.Open(spec)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if strings.HasSuffix(spec, ".aag") {
			g, err := aig.ParseAiger(spec, f)
			if err != nil {
				return nil, err
			}
			return g.ToCircuit().Circuit, nil
		}
		return circuit.ParseBench(spec, f)
	}
	args, err := parseInts(argStr)
	if err != nil {
		return nil, fmt.Errorf("genspec: %q: %v", spec, err)
	}
	switch name {
	case "counter":
		if len(args) != 1 {
			return nil, fmt.Errorf("genspec: counter:N")
		}
		return gen.Counter(args[0], true, false), nil
	case "counter-free":
		if len(args) != 1 {
			return nil, fmt.Errorf("genspec: counter-free:N")
		}
		return gen.Counter(args[0], false, false), nil
	case "shift":
		if len(args) != 1 {
			return nil, fmt.Errorf("genspec: shift:N")
		}
		return gen.ShiftRegister(args[0]), nil
	case "lfsr":
		if len(args) < 2 {
			return nil, fmt.Errorf("genspec: lfsr:N,tap[,tap...]")
		}
		return gen.LFSR(args[0], args[1:]...), nil
	case "johnson":
		if len(args) != 1 {
			return nil, fmt.Errorf("genspec: johnson:N")
		}
		return gen.Johnson(args[0]), nil
	case "gray":
		if len(args) != 1 {
			return nil, fmt.Errorf("genspec: gray:N")
		}
		return gen.GrayCounter(args[0]), nil
	case "arbiter":
		if len(args) != 1 {
			return nil, fmt.Errorf("genspec: arbiter:N")
		}
		return gen.Arbiter(args[0]), nil
	case "fifo":
		if len(args) != 1 {
			return nil, fmt.Errorf("genspec: fifo:N")
		}
		return gen.FIFOCtrl(args[0]), nil
	case "mult":
		if len(args) != 1 {
			return nil, fmt.Errorf("genspec: mult:N")
		}
		return gen.MultCore(args[0]), nil
	case "slike":
		if len(args) != 4 {
			return nil, fmt.Errorf("genspec: slike:SEED,GATES,LATCHES,INPUTS")
		}
		return gen.SLike(gen.SLikeParams{
			Seed: int64(args[0]), Gates: args[1], Latches: args[2], Inputs: args[3],
		}), nil
	default:
		return nil, fmt.Errorf("genspec: unknown generator %q", name)
	}
}

// Engine maps an engine name to its constant: the one engine-name table
// of the CLIs and the server.
func Engine(name string) (preimage.Engine, error) {
	switch name {
	case "success", "success-driven", "sd":
		return preimage.EngineSuccessDriven, nil
	case "blocking":
		return preimage.EngineBlocking, nil
	case "lifting":
		return preimage.EngineLifting, nil
	case "disjoint":
		return preimage.EngineDisjoint, nil
	case "bdd":
		return preimage.EngineBDD, nil
	default:
		return 0, fmt.Errorf("genspec: unknown engine %q (want success, blocking, lifting, disjoint, or bdd)", name)
	}
}

func parseInts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("missing arguments")
	}
	var out []int
	for _, tok := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", tok)
		}
		out = append(out, n)
	}
	return out, nil
}
