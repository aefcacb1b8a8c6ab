package campaign

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/sim"
)

// TestGenSpecExplicitZeros pins the sentinel semantics of the optional
// GenSpec fields: nil selects the default, Ptr(0) is honoured verbatim
// — jitter can be disabled, injection can happen at t=0 and cascade
// waves can be simultaneous.
func TestGenSpecExplicitZeros(t *testing.T) {
	env := testEnv(t, "")
	c, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	scs, err := Generate(c, GenSpec{
		Seed:      3,
		Scenarios: 8,
		Model:     SingleNode,
		FailAt:    Ptr(sim.Time(12)),
		JitterS:   Ptr(0.0),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		for _, w := range sc.Waves {
			if w.At != 12 {
				t.Fatalf("scenario %d wave at %v, want exactly 12 (jitter disabled)", sc.Index, w.At)
			}
		}
	}
	// Cascades need a zone with several racks to produce multiple waves.
	topo, err := PresetTopology(TopoSmall, 11)
	if err != nil {
		t.Fatal(err)
	}
	multiRack, err := NewEnv(EnvSpec{Topo: topo, Layout: cluster.Layout{Zones: 2, RacksPerZone: 2, SpreadStandby: true}})
	if err != nil {
		t.Fatal(err)
	}
	if c, err = multiRack.Cluster(); err != nil {
		t.Fatal(err)
	}
	scs, err = Generate(c, GenSpec{
		Seed:        3,
		Scenarios:   8,
		Model:       Cascade,
		JitterS:     Ptr(0.0),
		Correlation: 1,
		CascadeLag:  Ptr(sim.Time(0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	multi := false
	for _, sc := range scs {
		for i, w := range sc.Waves {
			if w.At != sc.Waves[0].At {
				t.Fatalf("scenario %d wave %d at %v, want simultaneous waves (zero lag)", sc.Index, i, w.At)
			}
		}
		if len(sc.Waves) > 1 {
			multi = true
		}
	}
	if !multi {
		t.Fatal("correlation 1 produced no multi-wave cascade; zero-lag case untested")
	}
	// And the defaults still apply when the fields are nil.
	scs, err = Generate(c, GenSpec{Seed: 3, Scenarios: 4, Model: SingleNode})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		if at := sc.Waves[0].At; at < 30.5 || at > 31.5 {
			t.Fatalf("default injection time %v outside [30.5, 31.5]", at)
		}
	}
}

// TestSampleTaskScenarios checks the node→task mapping of the
// correlation-distribution sampler against the cluster's reverse
// placement index.
func TestSampleTaskScenarios(t *testing.T) {
	env := testEnv(t, "")
	c, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	const perModel = 6
	sets, err := sampleTaskScenarios(c, GenSpec{Seed: 9, Scenarios: perModel, Correlation: DefaultCorrelation})
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != perModel*len(Models) {
		t.Fatalf("%d sampled sets, want %d", len(sets), perModel*len(Models))
	}
	n := env.spec.Topo.NumTasks()
	nonEmpty := 0
	for _, set := range sets {
		for i, id := range set {
			if int(id) < 0 || int(id) >= n {
				t.Fatalf("task %d outside topology", id)
			}
			if i > 0 && set[i-1] >= id {
				t.Fatalf("set %v not strictly sorted", set)
			}
		}
		if len(set) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no sampled scenario hits any primary task")
	}
}

// TestCorrPlannerEnv: a *-corr planner works end to end through NewEnv
// (the environment samples and installs its own distribution).
func TestCorrPlannerEnv(t *testing.T) {
	topo, err := PresetTopology(TopoSmall, 11)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(EnvSpec{Topo: topo, Planner: "sa-corr"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := env.Setup()
	if err != nil {
		t.Fatal(err)
	}
	active := 0
	for _, st := range s.Strategies {
		if st == engine.StrategyActive {
			active++
		}
	}
	if active == 0 {
		t.Fatal("sa-corr produced no active replicas")
	}
}

// TestCorrPresetPlansPinned pins the plans NewEnv computes with the
// *-corr planners on the three presets at topology seed 1 and default
// settings — the plans the campaign sweeps run. The delta-scored hill
// climb must pick exactly the tasks the full-rescoring climb picked.
func TestCorrPresetPlansPinned(t *testing.T) {
	for _, tc := range []struct {
		topo, planner, want string
	}{
		{TopoSmall, "sa-corr", "[0 3 7 12 13 17]"},
		{TopoSmall, "structured-corr", "[2 3 6 12 13 17]"},
		{TopoMedium, "sa-corr", "[0 1 2 3 4 5 6 7 26 27 37 38 39 40 43 44 51]"},
		{TopoMedium, "structured-corr", "[0 1 2 3 4 5 6 7 26 27 37 38 39 40 43 44 51]"},
		{TopoLarge, "sa-corr", "[0 1 2 3 4 5 6 10 11 12 14 15 17 18 19 20 26 27 28 29 30 33 34 35 36 38 43 44 68 81 82 83 84 85]"},
		{TopoLarge, "structured-corr", "[0 1 2 3 4 5 6 10 12 14 17 18 19 25 26 27 28 29 30 33 34 35 36 37 38 43 44 68 69 81 82 83 84 85]"},
	} {
		topo, err := PresetTopology(tc.topo, 1)
		if err != nil {
			t.Fatal(err)
		}
		env, err := NewEnv(EnvSpec{Topo: topo, Planner: tc.planner})
		if err != nil {
			t.Fatal(err)
		}
		var active []int
		for id, st := range env.strategies {
			if st == engine.StrategyActive {
				active = append(active, id)
			}
		}
		if got := fmt.Sprint(active); got != tc.want {
			t.Errorf("%s %s: plan %s, want %s", tc.topo, tc.planner, got, tc.want)
		}
	}
}

// TestAntiAffinityBeatsRoundRobin is the acceptance test of the
// placement fix: on a multi-rack cluster with active-replicated tasks,
// rack anti-affinity must yield strictly lower p95 output loss than the
// legacy round-robin placement under the WholeDomain and Cascade burst
// models — round-robin can co-locate a replica with its primary's rack,
// so one domain burst kills both copies and forces the slow checkpoint
// fallback.
func TestAntiAffinityBeatsRoundRobin(t *testing.T) {
	topo, err := PresetTopology(TopoSmall, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []Model{WholeDomain, Cascade} {
		run := func(placement cluster.PlacementPolicy) Summary {
			env, err := NewEnv(EnvSpec{
				Topo:      topo,
				Planner:   "greedy",
				Fraction:  1.0, // every task replicated: placement is the only variable
				Placement: placement,
				Layout:    cluster.Layout{Zones: 2, RacksPerZone: 2, SpreadStandby: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			c, err := env.Cluster()
			if err != nil {
				t.Fatal(err)
			}
			scenarios, err := Generate(c, GenSpec{
				Seed:        21,
				Scenarios:   24,
				Model:       model,
				Correlation: 0.8,
			})
			if err != nil {
				t.Fatal(err)
			}
			// The horizon ends while a checkpoint fallback is still
			// replaying but well after a replica takeover has caught
			// up, so surviving replicas show up as less output loss.
			rep, err := Run(Config{Setup: env.Setup, Scenarios: scenarios, Horizon: 45})
			if err != nil {
				t.Fatal(err)
			}
			return rep.Summary
		}
		aa := run(cluster.PlacementAntiAffinity)
		rr := run(cluster.PlacementRoundRobin)
		if aa.Loss.P95 >= rr.Loss.P95 {
			t.Errorf("%s: anti-affinity p95 loss %v not strictly below round-robin %v", model, aa.Loss.P95, rr.Loss.P95)
		}
		if aa.Latency.P95 >= rr.Latency.P95 {
			t.Errorf("%s: anti-affinity p95 latency %v not strictly below round-robin %v", model, aa.Latency.P95, rr.Latency.P95)
		}
	}
}
