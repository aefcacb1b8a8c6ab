package ppa_test

import (
	"testing"

	"repro/internal/topology"
	"repro/ppa"
)

// TestEndToEnd exercises the full public API: build a topology, compute
// a PPA plan, run the engine with a correlated failure and observe
// tentative outputs plus recovery.
func TestEndToEnd(t *testing.T) {
	b := ppa.NewBuilder()
	src := b.AddSource("src", 4, 1000)
	agg := b.AddOperator("agg", 2, ppa.Independent, 0.5)
	top := b.AddOperator("top", 1, ppa.Independent, 0.1)
	b.Connect(src, agg, ppa.Merge)
	b.Connect(agg, top, ppa.Merge)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	ctx := ppa.NewPlanContext(topo)
	p := planBy(t, ctx, "sa", 0.5)
	if of := ctx.OF(p); of <= 0 {
		t.Fatalf("plan OF = %v, want > 0 at 50%% resources", of)
	}

	clus := ppa.NewCluster(7, 4)
	if err := clus.PlaceRoundRobin(topo); err != nil {
		t.Fatal(err)
	}
	eng, err := ppa.NewEngine(ppa.EngineSetup{
		Topology: topo,
		Cluster:  clus,
		Config: ppa.EngineConfig{
			CheckpointInterval: 5,
			TentativeOutputs:   true,
		},
		Sources:    map[int]ppa.SourceFactory{0: ppa.NewCountSourceFactory(1000)},
		Operators:  map[int]ppa.OperatorFactory{1: ppa.NewWindowCountFactory(10, 0.5), 2: ppa.NewWindowCountFactory(10, 0.1)},
		Strategies: ppa.Strategies(topo.NumTasks(), ppa.StrategyCheckpoint, p.Tasks()),
	})
	if err != nil {
		t.Fatal(err)
	}
	var nodes []ppa.NodeID
	for _, n := range clus.ProcessingNodes() {
		nodes = append(nodes, n.ID)
	}
	eng.ScheduleNodeFailures(nodes, 20.3)
	eng.Run(120)

	stats := eng.RecoveryStats()
	if len(stats) == 0 {
		t.Fatal("no failures recorded")
	}
	for _, st := range stats {
		if !st.Recovered {
			t.Errorf("task %d (%s) not recovered", st.Task, st.Strategy)
		}
	}
}

// planBy plans the context's topology with the named planner at the
// given replication ratio.
func planBy(t *testing.T, ctx *ppa.PlanContext, name string, frac float64) ppa.Plan {
	t.Helper()
	budget, err := ppa.PlanBudget(ctx.Topo.NumTasks(), frac)
	if err != nil {
		t.Fatal(err)
	}
	pl, ok := ppa.LookupPlanner(name)
	if !ok {
		t.Fatalf("no planner %q", name)
	}
	p, err := pl.Plan(ctx, budget)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMetricsAndTrees(t *testing.T) {
	b := ppa.NewBuilder()
	s1 := b.AddSource("s1", 2, 100)
	s2 := b.AddSource("s2", 2, 100)
	j := b.AddOperator("join", 2, topology.Correlated, 0.5)
	b.Connect(s1, j, topology.Full)
	b.Connect(s2, j, topology.Full)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := ppa.CountMCTrees(topo); got != 8 { // 2 x 2 source choices x 2 join tasks
		t.Errorf("count = %v, want 8", got)
	}
	if got := ppa.MinMCTreeSize(topo); got != 3 {
		t.Errorf("min tree size = %d, want 3", got)
	}
	// Replicating every task survives any correlated failure.
	ctx := ppa.NewPlanContext(topo)
	p := planBy(t, ctx, "dp", 1)
	if of, ic := ctx.OF(p), ctx.IC(p); of != 1 || ic != 1 {
		t.Errorf("full-budget plan OF = %v, IC = %v, want 1, 1", of, ic)
	}
}

// TestCampaignEndToEnd drives the public failure-campaign surface: a
// preset topology, a domain-structured environment, seeded scenarios
// and a deterministic parallel campaign.
func TestCampaignEndToEnd(t *testing.T) {
	topo, err := ppa.PresetTopology("small", 9)
	if err != nil {
		t.Fatal(err)
	}
	env, err := ppa.NewCampaignEnv(ppa.CampaignEnvSpec{Topo: topo, Planner: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	clus, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if len(clus.Racks()) == 0 {
		t.Fatal("campaign cluster has no racks")
	}
	scenarios, err := ppa.GenerateScenarios(clus, ppa.ScenarioSpec{
		Seed:        3,
		Scenarios:   6,
		Model:       ppa.BurstWholeDomain,
		Correlation: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ppa.RunCampaign(ppa.CampaignConfig{
		Setup:     env.Setup,
		Scenarios: scenarios,
		Horizon:   120,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Scenarios != 6 || rep.Summary.Unrecovered > 0 {
		t.Fatalf("summary = %+v", rep.Summary)
	}
	if rep.Summary.Latency.P95 < rep.Summary.Latency.P50 {
		t.Errorf("p95 < p50: %+v", rep.Summary.Latency)
	}
}
