// Planner example: compare the replication-plan optimisers (DP,
// structure-aware and greedy) on random query topologies of §VI-C —
// the paper's Fig. 13/14 story at example scale. The structure-aware
// algorithm tracks the optimum while the greedy baseline collapses at
// small replication budgets because it ignores MC-tree completeness.
package main

import (
	"fmt"
	"log"

	"repro/internal/plan"
	"repro/internal/randtopo"
)

func main() {
	spec := randtopo.DefaultSpec(99)
	spec.MinOps, spec.MaxOps = 4, 6
	spec.MinPar, spec.MaxPar = 1, 3
	spec.Skew = 0.5

	planners := []string{"dp", "sa", "greedy"}
	for i := 0; i < 3; i++ {
		s := spec
		s.Seed = spec.Seed + int64(i)*17
		topo, err := randtopo.Generate(s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("topology %d: %d operators, %d tasks\n", i+1, topo.NumOps(), topo.NumTasks())

		ctx := plan.NewContext(topo)
		planAt := func(name string, frac float64) (plan.Plan, error) {
			budget, err := plan.Budget(topo.NumTasks(), frac)
			if err != nil {
				return plan.Plan{}, err
			}
			return plan.MustLookup(name).Plan(ctx, budget)
		}
		fmt.Printf("  %-10s", "resources")
		for _, name := range planners {
			fmt.Printf("%14s", name+"-OF")
		}
		fmt.Println()
		for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
			fmt.Printf("  %-10.2f", frac)
			for _, name := range planners {
				p, err := planAt(name, frac)
				if err != nil {
					// DP may exceed its search cap on some topologies.
					fmt.Printf("%14s", "n/a")
					continue
				}
				fmt.Printf("%14.3f", ctx.OF(p))
			}
			fmt.Println()
		}

		// Demonstrate dynamic plan adaptation (§V-C): growing the budget
		// reuses existing replicas and only activates the delta.
		small, err := planAt("sa", 0.25)
		if err != nil {
			log.Fatal(err)
		}
		large, err := planAt("sa", 0.5)
		if err != nil {
			log.Fatal(err)
		}
		activate, deactivate := plan.Diff(small, large)
		fmt.Printf("  adapting 0.25 -> 0.50: start %d new replicas, stop %d\n\n",
			len(activate), len(deactivate))
	}

	// The MC-tree view of one topology, through the raw Planner
	// interface.
	topo, err := randtopo.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}
	ctx := plan.NewContext(topo)
	g, err := plan.MustLookup("greedy").Plan(ctx, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greedy with budget 3 picks %v -> worst-case OF %.3f (no complete MC-tree)\n",
		g.Tasks(), ctx.OF(g))
}
