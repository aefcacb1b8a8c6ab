// Command topogen emits random query topologies as JSON specs, using
// the §VI-C random topology generator of the paper. The output feeds
// directly into ppaplan.
//
// Usage:
//
//	topogen -seed 7 -min-ops 5 -max-ops 10 -skew 0.1 -join 0.5 > topo.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/randtopo"
	"repro/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
}

// run parses args, generates the topology and writes its spec to
// stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	var (
		seed = fs.Int64("seed", 1, "generator seed")
		minO = fs.Int("min-ops", 5, "minimum operator count, above the source count (1, or 2 with -join)")
		maxO = fs.Int("max-ops", 10, "maximum operator count")
		minP = fs.Int("min-par", 1, "minimum parallelisation degree, at least 1")
		maxP = fs.Int("max-par", 10, "maximum parallelisation degree")
		skew = fs.Float64("skew", 0, "Zipf parameter of task workload skew, non-negative (0 = uniform)")
		full = fs.Bool("full", false, "generate an all-Full topology instead of a structured one")
		join = fs.Float64("join", 0, "fraction of operators made correlated-input joins, in [0, 1]")
		rate = fs.Float64("rate", 1000, "source rate per task (tuples/s), finite and positive")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sources := 1
	if *join > 0 {
		sources = 2 // a join reads two streams
	}
	switch {
	case !(*join >= 0 && *join <= 1):
		return fmt.Errorf("-join: fraction %v is outside [0, 1]", *join)
	case *minO <= sources:
		return fmt.Errorf("-min-ops: need more operators than the %d source(s), got %d", sources, *minO)
	case *maxO < *minO:
		return fmt.Errorf("-max-ops: %d is below -min-ops %d", *maxO, *minO)
	case *minP < 1:
		return fmt.Errorf("-min-par: need a positive parallelisation degree, got %d", *minP)
	case *maxP < *minP:
		return fmt.Errorf("-max-par: %d is below -min-par %d", *maxP, *minP)
	case !(*skew >= 0):
		return fmt.Errorf("-skew: Zipf parameter %v is negative or NaN", *skew)
	case !(randtopo.ZipfWeights(*maxP, *skew)[*maxP-1] > 0):
		return fmt.Errorf("-skew: Zipf parameter %v leaves task %d of an operator of parallelism %d no weight", *skew, *maxP, *maxP)
	case !(*rate > 0) || math.IsInf(*rate, 1):
		return fmt.Errorf("-rate: %v is not a finite positive rate", *rate)
	}

	spec := randtopo.DefaultSpec(*seed)
	spec.MinOps, spec.MaxOps = *minO, *maxO
	spec.MinPar, spec.MaxPar = *minP, *maxP
	spec.Skew = *skew
	spec.Full = *full
	spec.JoinFraction = *join
	spec.SourceRate = *rate

	topo, err := randtopo.Generate(spec)
	if err != nil {
		return err
	}
	return topology.WriteSpec(stdout, topo)
}
