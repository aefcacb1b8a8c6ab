package engine_test

import (
	"math"
	"testing"

	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/sim"
)

// TestSteadyStateAllocs runs the failure-free medium and large campaign
// presets (greedy plan, tentative outputs) past a 200 s warm-up and
// requires the next 100 virtual seconds to allocate less than one object
// per virtual second. Every event of that stretch is recycled: pooled
// deliveries, batch completions and trims, long-lived timers on the
// clock's lanes, and a master that allocates nothing while no failure is
// pending. What remains is the sink ledger's amortised growth.
func TestSteadyStateAllocs(t *testing.T) {
	for _, preset := range []string{campaign.TopoMedium, campaign.TopoLarge} {
		topo, err := campaign.PresetTopology(preset, 1)
		if err != nil {
			t.Fatal(err)
		}
		env, err := campaign.NewEnv(campaign.EnvSpec{Topo: topo, Planner: "greedy", Tentative: true})
		if err != nil {
			t.Fatal(err)
		}
		setup, err := env.Setup()
		if err != nil {
			t.Fatal(err)
		}
		e, err := engine.New(setup)
		if err != nil {
			t.Fatal(err)
		}
		until := sim.Time(200)
		e.Run(until)
		// AllocsPerRun runs once more first to warm up: 200 s to 300 s
		// warms, 300 s to 400 s is measured.
		const span = 100
		allocs := testing.AllocsPerRun(1, func() {
			until += span
			e.Run(until)
		})
		if perSec := allocs / span; perSec >= 1 {
			t.Errorf("%s: %.0f allocations in %d failure-free virtual seconds (%.2f/s), want < 1/s", preset, allocs, span, perSec)
		}
		if e.SinkTupleCount() == 0 {
			t.Errorf("%s: no sink output; test misconfigured", preset)
		}
	}
}

// TestScenarioAllocs bounds what a failure scenario allocates once its
// engine is warm. Each cell of the grid — the small, medium and large
// presets × checkpoint-only and greedy plans × the four burst models ×
// tentative outputs off and on — runs 12 scenarios (seed 1) through
// ScheduleNodeFailures, RunSpliced and Reset on an engine marked before
// their earliest wave, once to warm up and once measured. Failures,
// recovery steps and every other event are recycled runners, and
// recovery restarts the runtimes New built and recycles the checkpoint
// objects, so a warm scenario allocates next to nothing: measured, at
// most 0.4 objects per scenario; the bound is 1. The same medium
// greedy cascades with their waves 2 s and 12 s apart, so that
// recovery lasts longer, must allocate the same within 2 objects per
// scenario. -short, and the race detector, run the small preset only.
func TestScenarioAllocs(t *testing.T) {
	const perCell, maxPerScenario, lagSlack = 12, 1, 2
	presets := []string{campaign.TopoSmall, campaign.TopoMedium, campaign.TopoLarge}
	if testing.Short() || raceEnabled {
		presets = presets[:1]
	}
	for _, preset := range presets {
		for _, planner := range []string{"", "greedy"} {
			for _, model := range campaign.Models {
				for _, tentative := range []bool{false, true} {
					spec := campaign.GenSpec{Seed: 1, Scenarios: perCell, Model: model, Correlation: campaign.DefaultCorrelation}
					objs, bytes := presetRig(t, preset, planner, tentative, spec).allocs(t)
					t.Logf("%s/%q/%s/tentative=%v: %.1f objects, %.1f KB per scenario", preset, planner, model, tentative, objs, bytes/1024)
					if objs > maxPerScenario {
						t.Errorf("%s/%q/%s/tentative=%v: %.1f allocations per scenario, want at most %d", preset, planner, model, tentative, objs, maxPerScenario)
					}
				}
			}
		}
	}
	lagPreset := presets[len(presets)/2]
	var lagged [2]float64
	for i, lag := range []sim.Time{2, 12} {
		spec := campaign.GenSpec{Seed: 1, Scenarios: perCell, Model: campaign.Cascade, Correlation: campaign.DefaultCorrelation, CascadeLag: campaign.Ptr(lag)}
		lagged[i], _ = presetRig(t, lagPreset, "greedy", true, spec).allocs(t)
	}
	t.Logf("%s greedy cascades: %.1f objects per scenario at a 2 s lag, %.1f at 12 s", lagPreset, lagged[0], lagged[1])
	if math.Abs(lagged[1]-lagged[0]) > lagSlack {
		t.Errorf("%s greedy cascades allocate %.1f objects per scenario at a 2 s lag and %.1f at 12 s: allocations grow with the recovery's length", lagPreset, lagged[0], lagged[1])
	}
}
