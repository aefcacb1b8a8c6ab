// Command ppaplan computes a partially active replication plan for a
// query topology given as a JSON spec (see internal/topology.Spec),
// printing the chosen tasks and the plan's predicted Output Fidelity
// and Internal Completeness. Any planner in the plan registry can be
// selected by name.
//
// The *-corr planners (dp-corr, structured-corr, sa-corr) optimise the
// expected OF under a domain-correlated failure distribution instead of
// the worst-case single burst. ppaplan samples that distribution from
// the standard campaign cluster layout for the topology (all burst
// models, -corr-scenarios draws each, seeded by -corr-seed) before
// planning, and reports the expected OF alongside the worst-case
// metrics.
//
// Usage:
//
//	ppaplan -topology topo.json -planner sa -fraction 0.5
//	topogen -seed 7 | ppaplan -planner greedy -budget 10
//	topogen -seed 7 | ppaplan -planner dp -fraction 0.3
//	topogen -seed 7 | ppaplan -planner sa-corr -corr-scenarios 64
//	ppaplan -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/campaign"
	"repro/internal/plan"
	"repro/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "ppaplan:", err)
		os.Exit(1)
	}
}

// run parses args, plans the topology read from -topology (stdin for
// '-') and prints the plan to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ppaplan", flag.ContinueOnError)
	var (
		topoPath = fs.String("topology", "-", "topology spec JSON file ('-' for stdin)")
		planner  = fs.String("planner", "sa", "planner name (see -list)")
		budget   = fs.Int("budget", -1, "replication budget in tasks, at most the task count (overrides -fraction; -1 leaves it unset)")
		fraction = fs.Float64("fraction", 0.5, "replication budget as a fraction of the task count, in [0, 1]")
		corrScen = fs.Int("corr-scenarios", 24, "scenarios sampled per burst model for the *-corr planners")
		corrSeed = fs.Int64("corr-seed", 1, "seed of the correlation-distribution sampling")
		list     = fs.Bool("list", false, "list the registered planners and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Fprintln(stdout, strings.Join(plan.Names(), "\n"))
		return nil
	}
	pl, ok := plan.Lookup(*planner)
	if !ok {
		return fmt.Errorf("-planner: unknown planner %q (registered: %v)", *planner, plan.Names())
	}
	if *budget < -1 {
		return fmt.Errorf("-budget: %d is negative (-1 leaves the budget to -fraction)", *budget)
	}
	if *corrScen <= 0 {
		return fmt.Errorf("-corr-scenarios: need a positive scenario count, got %d", *corrScen)
	}

	in := os.Stdin
	if *topoPath != "-" {
		f, err := os.Open(*topoPath)
		if err != nil {
			return fmt.Errorf("-topology: %w", err)
		}
		defer f.Close()
		in = f
	}
	topo, err := topology.ReadSpec(in)
	if err != nil {
		return fmt.Errorf("-topology: %w", err)
	}
	b := *budget
	if b > topo.NumTasks() {
		return fmt.Errorf("-budget: %d exceeds the topology's %d tasks", b, topo.NumTasks())
	}
	if b < 0 {
		if b, err = plan.Budget(topo.NumTasks(), *fraction); err != nil {
			return fmt.Errorf("-fraction: %w", err)
		}
	}

	ctx := plan.NewContext(topo)
	corr := strings.HasSuffix(*planner, "-corr")
	if corr {
		env, err := campaign.NewEnv(campaign.EnvSpec{Topo: topo})
		if err != nil {
			return err
		}
		set, err := env.CorrelationSet(*corrScen, *corrSeed)
		if err != nil {
			return err
		}
		if err := ctx.SetScenarios(set); err != nil {
			return err
		}
	}
	p, err := pl.Plan(ctx, b)
	if err != nil {
		return fmt.Errorf("%s planning: %w", pl.Name(), err)
	}

	fmt.Fprintf(stdout, "topology: %d operators, %d tasks\n", topo.NumOps(), topo.NumTasks())
	fmt.Fprintf(stdout, "planner: %s, budget: %d tasks\n", pl.Name(), b)
	fmt.Fprintf(stdout, "plan size: %d tasks\n", p.Size())
	fmt.Fprintf(stdout, "predicted OF: %.4f\n", ctx.OF(p))
	fmt.Fprintf(stdout, "predicted IC: %.4f\n", ctx.IC(p))
	if corr {
		fmt.Fprintf(stdout, "expected OF under correlated bursts: %.4f\n", ctx.CorrObjective(p))
	}
	fmt.Fprintln(stdout, "replicated tasks:")
	for _, id := range p.Tasks() {
		task := topo.Tasks[id]
		fmt.Fprintf(stdout, "  task %3d = %s[%d]\n", id, topo.Ops[task.Op].Name, task.Index)
	}
	return nil
}
