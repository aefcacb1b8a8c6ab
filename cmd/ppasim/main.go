// Command ppasim runs one failure/recovery scenario on the synthetic
// recovery-efficiency topology of §VI-A (Fig. 6) and prints per-task
// recovery latencies — the building block of Figs. 7, 8 and 10.
//
// Usage:
//
//	ppasim -technique checkpoint -ckpt 15 -rate 2000 -window 30 -failure correlated
//	ppasim -technique active -trim 5 -failure single
//	ppasim -technique storm -window 10
//	ppasim -technique ppa -fraction 0.5 -ckpt 5 -failure correlated
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/engine"
	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "ppasim:", err)
		os.Exit(1)
	}
}

// run parses args, simulates the scenario and prints its recovery
// latencies to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ppasim", flag.ContinueOnError)
	var (
		technique = fs.String("technique", "checkpoint", "fault tolerance: checkpoint, active, storm, ppa")
		rate      = fs.Int("rate", 1000, "source rate per task (tuples/s)")
		window    = fs.Int("window", 30, "sliding window length in batches/seconds")
		ckpt      = fs.Float64("ckpt", 15, "checkpoint interval (s)")
		trim      = fs.Float64("trim", 5, "replica trim/sync interval (s)")
		fraction  = fs.Float64("fraction", 0.5, "actively replicated fraction for -technique ppa, in [0, 1]")
		failure   = fs.String("failure", "single", "failure mode: single or correlated")
		failAt    = fs.Float64("fail-at", 45.2, "failure injection time (virtual s), in [0, -horizon)")
		horizon   = fs.Float64("horizon", 300, "simulation horizon (virtual s)")
		tentative = fs.Bool("tentative", false, "fabricate punctuations for tentative outputs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The comparisons are written so that NaN fails them.
	if !(*horizon >= 0) || math.IsInf(*horizon, 1) {
		return fmt.Errorf("-horizon %v: want a finite, non-negative time", *horizon)
	}
	if !(*failAt >= 0 && *failAt < *horizon) {
		return fmt.Errorf("-fail-at %v: want a time in [0, %v), before -horizon", *failAt, *horizon)
	}
	if !(*fraction >= 0 && *fraction <= 1) {
		return fmt.Errorf("-fraction %v: want a fraction in [0, 1]", *fraction)
	}

	f, err := queries.NewFig6(queries.Fig6Params{RatePerTask: *rate, WindowBatches: *window})
	if err != nil {
		return err
	}
	cfg := engine.Config{
		WindowBatches:       *window,
		ReplicaTrimInterval: sim.Time(*trim),
		TentativeOutputs:    *tentative,
	}
	var strategies []engine.Strategy
	switch *technique {
	case "checkpoint":
		cfg.CheckpointInterval = sim.Time(*ckpt)
		strategies = engine.Strategies(f.Topo.NumTasks(), engine.StrategyCheckpoint, nil)
	case "active":
		cfg.CheckpointInterval = sim.Time(*ckpt)
		strategies = engine.Strategies(f.Topo.NumTasks(), engine.StrategyCheckpoint, f.SyntheticTasks)
	case "storm":
		strategies = engine.Strategies(f.Topo.NumTasks(), engine.StrategySourceReplay, nil)
	case "ppa":
		cfg.CheckpointInterval = sim.Time(*ckpt)
		want := int(*fraction*float64(len(f.SyntheticTasks)) + 0.5)
		var active []topology.TaskID
		for i := 0; i < len(f.SyntheticTasks) && len(active) < want; i += 2 {
			active = append(active, f.SyntheticTasks[i])
		}
		for i := 1; i < len(f.SyntheticTasks) && len(active) < want; i += 2 {
			active = append(active, f.SyntheticTasks[i])
		}
		strategies = engine.Strategies(f.Topo.NumTasks(), engine.StrategyCheckpoint, active)
	default:
		return fmt.Errorf("-technique: unknown technique %q", *technique)
	}

	e, err := engine.New(f.Setup(cfg, strategies))
	if err != nil {
		return err
	}
	switch *failure {
	case "single":
		e.ScheduleNodeFailure(f.SyntheticNodes[8], sim.Time(*failAt)) // an O2 node
	case "correlated":
		for _, n := range f.SyntheticNodes {
			e.ScheduleNodeFailure(n, sim.Time(*failAt))
		}
	default:
		return fmt.Errorf("-failure: unknown failure mode %q", *failure)
	}
	e.Run(sim.Time(*horizon))

	fmt.Fprintf(stdout, "technique=%s rate=%d window=%ds failure=%s\n", *technique, *rate, *window, *failure)
	stats := e.RecoveryStats()
	if len(stats) == 0 {
		fmt.Fprintln(stdout, "no failures recorded")
		return nil
	}
	var worst sim.Time
	for _, st := range stats {
		task := e.Topology().Tasks[st.Task]
		name := fmt.Sprintf("%s[%d]", e.Topology().Ops[task.Op].Name, task.Index)
		if !st.Recovered {
			fmt.Fprintf(stdout, "  task %-8s strategy=%-13s NOT RECOVERED by horizon\n", name, st.Strategy)
			continue
		}
		fmt.Fprintf(stdout, "  task %-8s strategy=%-13s detected=%7.2fs recovered=%7.2fs latency=%6.2fs\n",
			name, st.Strategy, float64(st.DetectedAt), float64(st.RecoveredAt), float64(st.Latency()))
		if st.Latency() > worst {
			worst = st.Latency()
		}
	}
	fmt.Fprintf(stdout, "overall recovery latency: %.2fs\n", float64(worst))
	return nil
}
