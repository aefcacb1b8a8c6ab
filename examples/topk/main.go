// Top-k example (the paper's Q1): a hierarchical top-100 aggregation
// over a synthetic WorldCup-style web access log. A worst-case
// correlated failure takes down every task outside the PPA plan, and
// the example compares the tentative top-k against the failure-free
// result, showing how the structure-aware plan preserves accuracy.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/queries"
	"repro/internal/topology"
)

func runQ1(q *queries.Q1, failed []topology.TaskID) []engine.SinkRecord {
	clus := cluster.New(q.Topo.NumTasks(), 4)
	if err := clus.PlaceRoundRobin(q.Topo); err != nil {
		log.Fatal(err)
	}
	strategies := make([]engine.Strategy, q.Topo.NumTasks())
	for _, id := range failed {
		strategies[id] = engine.StrategyNone
	}
	e, err := engine.New(engine.Setup{
		Topology:   q.Topo,
		Cluster:    clus,
		Config:     engine.Config{TentativeOutputs: true, HeartbeatInterval: 1, ProcRate: 1e7},
		Sources:    q.Sources(),
		Operators:  q.Operators(),
		Strategies: strategies,
	})
	if err != nil {
		log.Fatal(err)
	}
	if len(failed) > 0 {
		e.ScheduleTaskFailures(failed, 0.1)
	}
	e.Run(45)
	return e.SinkRecords()
}

func main() {
	build := func() *queries.Q1 {
		q, err := queries.NewQ1(queries.Q1Params{Seed: 2016, K: 100, WindowBatches: 20})
		if err != nil {
			log.Fatal(err)
		}
		return q
	}

	q := build()
	fmt.Printf("Q1: hierarchical top-100 over the access log (%d operators, %d tasks)\n",
		q.Topo.NumOps(), q.Topo.NumTasks())

	// Failure-free baseline.
	base := runQ1(build(), nil)
	baseKeys, lastBatch := queries.LastBatchKeys(base, -1)
	fmt.Printf("baseline: %d entries in the top-100 at batch %d\n", len(baseKeys), lastBatch)

	// Structure-aware PPA plans at 20-80% of the tasks actively
	// replicated.
	ctx := plan.NewContext(q.Topo)
	planAt := func(frac float64) plan.Plan {
		budget, err := plan.Budget(q.Topo.NumTasks(), frac)
		if err != nil {
			log.Fatal(err)
		}
		p, err := plan.MustLookup("sa").Plan(ctx, budget)
		if err != nil {
			log.Fatal(err)
		}
		return p
	}
	// Worst-case correlated failure: everything outside the plan.
	failedOutside := func(p plan.Plan) []topology.TaskID {
		var failed []topology.TaskID
		for id := 0; id < q.Topo.NumTasks(); id++ {
			if !p.Has(topology.TaskID(id)) {
				failed = append(failed, topology.TaskID(id))
			}
		}
		return failed
	}
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8} {
		p := planAt(frac)
		recs := runQ1(build(), failedOutside(p))
		tentKeys, _ := queries.LastBatchKeys(recs, lastBatch)
		acc := queries.SetAccuracy(tentKeys, baseKeys)
		fmt.Printf("resources %.1f: predicted OF %.3f, tentative top-100 accuracy %.3f\n",
			frac, ctx.OF(p), acc)
	}

	// Show a sample of the surviving tentative ranking at 0.4.
	recs := runQ1(build(), failedOutside(planAt(0.4)))
	tentKeys, _ := queries.LastBatchKeys(recs, lastBatch)
	var sample []string
	for k := range tentKeys {
		sample = append(sample, k)
	}
	sort.Strings(sample)
	if len(sample) > 5 {
		sample = sample[:5]
	}
	fmt.Printf("sample tentative entries at 0.4 resources: %v\n", sample)
}
