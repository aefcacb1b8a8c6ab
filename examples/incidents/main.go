// Incident-detection example (the paper's Q2): a community-navigation
// service joining a user-location stream with a user-reported incident
// stream to detect traffic jams in real time. The example demonstrates
// why join (correlated-input) operators make the IC metric mispredict
// tentative-output quality while OF stays accurate — the paper's
// Fig. 12(b) in miniature.
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/queries"
	"repro/internal/topology"
)

func buildQ2() *queries.Q2 {
	q, err := queries.NewQ2(queries.Q2Params{
		Seed:      2016,
		LocTasks:  8,
		IncTasks:  2,
		JoinTasks: 4,
		Users:     20000,
		Segments:  200,
		LocRate:   4000,
	})
	if err != nil {
		log.Fatal(err)
	}
	return q
}

func runQ2(q *queries.Q2, failed []topology.TaskID) []engine.SinkRecord {
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
	e.Run(60)
	return e.SinkRecords()
}

func main() {
	q := buildQ2()
	fmt.Printf("Q2: traffic-jam detection join (%d operators, %d tasks; O3 is correlated-input)\n",
		q.Topo.NumOps(), q.Topo.NumTasks())

	base := runQ2(buildQ2(), nil)
	baseJams := queries.AllKeys(base)
	fmt.Printf("baseline detected %d jam incidents in 60s\n", len(baseJams))

	ctx := plan.NewContext(q.Topo)
	frac := 0.4
	budget, err := plan.Budget(q.Topo.NumTasks(), frac)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nplans at %.0f%% replication resources:\n", frac*100)
	for _, name := range []string{"sa", "sa-ic"} {
		p, err := plan.MustLookup(name).Plan(ctx, budget)
		if err != nil {
			log.Fatal(err)
		}
		var failed []topology.TaskID
		for id := 0; id < q.Topo.NumTasks(); id++ {
			if !p.Has(topology.TaskID(id)) {
				failed = append(failed, topology.TaskID(id))
			}
		}
		recs := runQ2(buildQ2(), failed)
		acc := queries.SetAccuracy(queries.AllKeys(recs), baseJams)
		fmt.Printf("  %-9s predicted OF %.3f, predicted IC %.3f, actual accuracy %.3f\n",
			name, ctx.OF(p), ctx.IC(p), acc)
	}
	fmt.Println("\nThe IC-optimised plan reports high internal completeness but loses")
	fmt.Println("the join's incident side, so its actual accuracy collapses; OF models")
	fmt.Println("the input correlation and predicts the achievable accuracy (§VI-B).")
}
