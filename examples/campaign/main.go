// Campaign: sweep the correlated-failure space of one topology with a
// Monte-Carlo failure campaign — seeded rack/domain/cascade bursts run
// as independent simulations on a worker pool, with recovery-latency,
// output-loss and answer-quality (tentative fraction, corrected
// fraction, time-to-correction) distributions aggregated per burst
// model — then pit the default rack anti-affinity replica placement
// against the legacy domain-blind round-robin placement under
// whole-domain bursts.
package main

import (
	"fmt"
	"log"

	"repro/ppa"
)

func main() {
	// 1. The paper's §VI-C medium random topology, protected by a
	// structure-aware PPA plan covering 30% of the tasks. The campaign
	// environment sizes a cluster (2 primary tasks per node), lays out
	// failure domains (zones of racks, standby nodes spread across
	// racks) and computes the plan once.
	topo, err := ppa.PresetTopology("medium", 1)
	if err != nil {
		log.Fatal(err)
	}
	// Tentative enables the tentative-output/correction pipeline, so
	// the campaign also measures answer quality: how much output was
	// tentative during failures, and how quickly it was corrected.
	env, err := ppa.NewCampaignEnv(ppa.CampaignEnvSpec{Topo: topo, Planner: "sa", Tentative: true})
	if err != nil {
		log.Fatal(err)
	}
	clus, err := env.Cluster()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology: %d ops, %d tasks; cluster: %d nodes in %d racks\n",
		topo.NumOps(), topo.NumTasks(), len(clus.Nodes()), len(clus.Racks()))

	// 2. For each burst model, draw 100 seeded scenarios against the
	// failure-domain layout and run them in parallel. The same seed
	// always reproduces the same report, whatever the worker count.
	//
	// Aggregation streams: each result folds into mergeable quantile
	// sketches and is then discarded, so the campaign's memory footprint
	// is flat in the scenario count — this same loop handles a million
	// scenarios per model. Per-result access without retention goes
	// through OnResult, which observes every result in scenario order;
	// here it tallies the slowest recovery instead of keeping 100
	// results alive. (Set KeepResults to get rep.Results back.)
	for _, model := range ppa.BurstModels() {
		scenarios, err := ppa.GenerateScenarios(clus, ppa.ScenarioSpec{
			Seed:        42,
			Scenarios:   100,
			Model:       model,
			Correlation: 0.5,
		})
		if err != nil {
			log.Fatal(err)
		}
		var worst ppa.FailureScenario
		var worstLat ppa.Time
		rep, err := ppa.RunCampaign(ppa.CampaignConfig{
			Setup:     env.Setup,
			Scenarios: scenarios,
			Horizon:   150,
			OnResult: func(r ppa.CampaignResult) {
				if r.Recovered && r.WorstLatency > worstLat {
					worst, worstLat = r.Scenario, r.WorstLatency
				}
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		s := rep.Summary
		fmt.Printf("%-10s latency mean=%5.2fs p95=%5.2fs p99=%5.2fs  loss mean=%.4f  blast mean=%.1f tasks  unrecovered=%d/%d\n",
			model, s.Latency.Mean, s.Latency.P95, s.Latency.P99,
			s.Loss.Mean, s.FailedTasks.Mean, s.Unrecovered, s.Scenarios)
		fmt.Printf("%-10s quality tentative mean=%.4f  corrected mean=%.4f  t2c p50=%5.2fs p95=%5.2fs\n",
			"", s.TentativeFrac.Mean, s.CorrectedFrac.Mean,
			s.TimeToCorrection.P50, s.TimeToCorrection.P95)
		fmt.Printf("%-10s slowest recovery: scenario %d (%s) at %.2fs\n",
			"", worst.Index, worst.Label, float64(worstLat))
	}

	// 3. Placement head-to-head: fully replicate the topology and run
	// the same whole-domain bursts under both replica placements. With
	// anti-affinity (the default) a replica never shares its primary's
	// rack, so the burst that kills the primary leaves the replica
	// alive and recovery is a fast take-over; round-robin can co-locate
	// the pair and falls back to checkpoint replay. The short horizon
	// catches the fallback mid-replay, so the co-location shows up as
	// output loss, not just latency.
	fmt.Println("\nplacement head-to-head (whole-domain bursts, full replication):")
	for _, placement := range []ppa.PlacementPolicy{ppa.PlacementAntiAffinity, ppa.PlacementRoundRobin} {
		env, err := ppa.NewCampaignEnv(ppa.CampaignEnvSpec{
			Topo: topo, Planner: "greedy", Fraction: 1.0, Placement: placement,
		})
		if err != nil {
			log.Fatal(err)
		}
		clus, err := env.Cluster()
		if err != nil {
			log.Fatal(err)
		}
		scenarios, err := ppa.GenerateScenarios(clus, ppa.ScenarioSpec{
			Seed: 42, Scenarios: 100, Model: ppa.BurstWholeDomain, Correlation: 0.5,
		})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := ppa.RunCampaign(ppa.CampaignConfig{Setup: env.Setup, Scenarios: scenarios, Horizon: 40})
		if err != nil {
			log.Fatal(err)
		}
		s := rep.Summary
		fmt.Printf("%-14s latency p95=%5.2fs  loss p95=%.4f  unrecovered=%d/%d\n",
			placement, s.Latency.P95, s.Loss.P95, s.Unrecovered, s.Scenarios)
	}
}
