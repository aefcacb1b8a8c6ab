package engine_test

import (
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
