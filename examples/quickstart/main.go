// Quickstart: build a small query topology, compute a PPA replication
// plan, run it on the engine, inject a correlated failure and watch the
// recovery — the end-to-end loop of the PPA framework.
package main

import (
	"fmt"
	"log"

	"repro/ppa"
)

func main() {
	// 1. A 3-operator aggregation pipeline: 4 source tasks feeding 2
	// window aggregators feeding a single global aggregator.
	b := ppa.NewBuilder()
	src := b.AddSource("events", 4, 1000) // 1000 tuples/s per task
	agg := b.AddOperator("window-agg", 2, ppa.Independent, 0.5)
	top := b.AddOperator("global-agg", 1, ppa.Independent, 0.1)
	b.Connect(src, agg, ppa.Merge)
	b.Connect(agg, top, ppa.Merge)
	topo, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology: %d operators, %d tasks, %d MC-trees (min size %d)\n",
		topo.NumOps(), topo.NumTasks(), int(ppa.CountMCTrees(topo)), ppa.MinMCTreeSize(topo))

	// 2. Plan active replication for half the tasks with the
	// structure-aware algorithm; every task is also checkpointed.
	ctx := ppa.NewPlanContext(topo)
	budget, err := ppa.PlanBudget(topo.NumTasks(), 0.5)
	if err != nil {
		log.Fatal(err)
	}
	sa, _ := ppa.LookupPlanner("sa")
	p, err := sa.Plan(ctx, budget)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PPA plan (%s, budget %d): %d replicas, predicted OF %.3f\n",
		sa.Name(), budget, p.Size(), ctx.OF(p))
	fmt.Printf("actively replicated tasks: %v\n", p.Tasks())

	// 3. Run the engine: 7 processing nodes, 4 standby nodes, 5s
	// checkpoints, tentative outputs enabled.
	clus := ppa.NewCluster(7, 4)
	if err := clus.PlaceRoundRobin(topo); err != nil {
		log.Fatal(err)
	}
	eng, err := ppa.NewEngine(ppa.EngineSetup{
		Topology: topo,
		Cluster:  clus,
		Config: ppa.EngineConfig{
			CheckpointInterval: 5,
			TentativeOutputs:   true,
		},
		Sources: map[int]ppa.SourceFactory{0: ppa.NewCountSourceFactory(1000)},
		Operators: map[int]ppa.OperatorFactory{
			1: ppa.NewWindowCountFactory(10, 0.5),
			2: ppa.NewWindowCountFactory(10, 0.1),
		},
		Strategies: ppa.Strategies(topo.NumTasks(), ppa.StrategyCheckpoint, p.Tasks()),
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Kill every processing node at t=30s — the correlated failure.
	eng.ScheduleCorrelatedFailure(30.3)
	eng.Run(120)

	// 5. Report: actively replicated tasks recover orders of magnitude
	// faster; the topology keeps producing tentative outputs meanwhile.
	fmt.Println("\nrecovery after the correlated failure at t=30.3s:")
	for _, st := range eng.RecoveryStats() {
		task := topo.Tasks[st.Task]
		fmt.Printf("  %s[%d] (%s): detected %.1fs, recovered %.1fs, latency %.2fs\n",
			topo.Ops[task.Op].Name, task.Index, st.Strategy,
			float64(st.DetectedAt), float64(st.RecoveredAt), float64(st.Latency()))
	}
}
