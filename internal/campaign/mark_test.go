package campaign

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/sim"
)

// referenceReport drives the scenarios of cfg the way the benchmark's
// direct drive does, every one from time zero: one engine, built with
// engine.New for the baseline and Reset for each scenario, every wave
// scheduled with ScheduleNodeFailures, then Run to the horizon. The
// engine is never marked, so each Reset returns it to time zero.
func referenceReport(t *testing.T, cfg Config) *Report {
	t.Helper()
	s, err := cfg.Setup()
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(s)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(cfg.Horizon)
	rep := &Report{BaselineSinkTuples: e.SinkTupleCount()}
	for _, sc := range cfg.Scenarios {
		e.Reset()
		for _, w := range sc.Waves {
			e.ScheduleNodeFailures(w.Nodes, w.At)
		}
		e.Run(cfg.Horizon)
		res := ScenarioResult{Scenario: sc, Recovered: true, SinkTuples: e.SinkTupleCount()}
		res.OutputLoss = 1 - float64(res.SinkTuples)/float64(rep.BaselineSinkTuples)
		acc := e.AccuracyStats()
		res.TentativeFrac = acc.TentativeFraction()
		res.CorrectedFrac = acc.CorrectedFraction()
		for _, d := range acc.CorrectionDelays {
			res.CorrectionDelays = append(res.CorrectionDelays, float64(d))
		}
		for _, st := range e.RecoveryStats() {
			res.FailedTasks++
			if !st.Recovered {
				res.Recovered = false
			} else if lat := st.RecoveredAt - st.DetectedAt; lat > res.WorstLatency {
				res.WorstLatency = lat
			}
		}
		rep.Results = append(rep.Results, res)
	}
	return rep
}

// TestMarkedCampaignMatchesFromZero checks that campaign.Run, whose
// engines run the shared failure-free prefix once and reset onto an
// image marked just before the earliest wave, reports every scenario
// exactly as a from-zero drive does — at Workers 1 and 3, and on the
// range path, whose ranges mark at their own earliest waves. The cases
// are waves tied with a batch tick (every wave at 31, when batch 30 is
// emitted: the waves must still fire first), an empty prefix (every
// wave at 0), and hand-built scenarios without waves, with waves out
// of time order, or with waves at 30.05 s, tied with the source
// deliveries of batch 29 on the clock's hop lane (the earliest wave,
// so the image is marked with those deliveries pending).
func TestMarkedCampaignMatchesFromZero(t *testing.T) {
	env, _ := goldenCampaign(t)
	sample, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	gen := func(model Model, seed int64, failAt sim.Time) []Scenario {
		scs, err := Generate(sample, GenSpec{
			Seed:        seed,
			Scenarios:   4,
			Model:       model,
			Correlation: DefaultCorrelation,
			FailAt:      Ptr(failAt),
			JitterS:     Ptr(0.0),
		})
		if err != nil {
			t.Fatal(err)
		}
		return scs
	}
	reindex := func(scs []Scenario) []Scenario {
		for i := range scs {
			scs[i].Index = i
		}
		return scs
	}
	proc := sample.ProcessingNodes()
	node := func(i int) []cluster.NodeID { return []cluster.NodeID{proc[i%len(proc)].ID} }
	// The batch tick at 30 s emits batch 29; its source deliveries
	// arrive one NetDelay (the default 50 ms) later, on the clock's hop
	// lane, so a wave at that instant ties with lane events. Computed
	// the way the engine computes it.
	tick, netDelay := sim.Time(30), sim.Time(0.05)
	laneTie := tick + netDelay
	mixed := append(gen(WholeDomain, 3, 40)[:2],
		Scenario{Label: "lane-tie", Waves: []Wave{{At: laneTie, Nodes: node(0)}}},
		Scenario{Label: "lane-tie", Waves: []Wave{{At: laneTie, Nodes: append(node(3), node(5)...)}}},
		Scenario{Label: "no-waves"},
		Scenario{Label: "unordered", Waves: []Wave{{At: 52, Nodes: node(1)}, {At: 33.25, Nodes: node(4)}}},
		Scenario{Label: "no-waves"},
		Scenario{Label: "no-waves", Waves: []Wave{}},
	)
	mixed = append(mixed, gen(SingleNode, 4, 31)[:2]...)
	mixed = append(mixed,
		Scenario{Label: "unordered-tie", Waves: []Wave{{At: 45, Nodes: node(2)}, {At: 36, Nodes: node(0)}, {At: 36, Nodes: node(3)}}},
		Scenario{Label: "no-waves"},
	)

	cases := []struct {
		name      string
		scenarios []Scenario
	}{
		{"tie-with-batch-tick", reindex(append(gen(SingleNode, 1, 31), gen(WholeDomain, 2, 31)...))},
		{"empty-prefix", reindex(append(gen(SingleNode, 1, 0), gen(WholeDomain, 2, 0)...))},
		{"hand-built", reindex(mixed)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Setup: env.Setup, Scenarios: c.scenarios, Horizon: 90, Shards: 5, KeepResults: true}
			ref := referenceReport(t, cfg)
			want := ReportDigest(ref)
			var run *Report
			for _, workers := range []int{1, 3} {
				cfg.Workers = workers
				rep, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := ReportDigest(rep); got != want {
					t.Errorf("workers=%d: digest %s, from-zero reference %s", workers, got, want)
				}
				run = rep
			}
			ranges, err := Partition(cfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			rcfg := cfg
			rcfg.KeepResults = false
			rcfg.Baseline = ref.BaselineSinkTuples
			var states []ShardState
			for _, r := range ranges {
				st, err := RunRange(rcfg, r)
				if err != nil {
					t.Fatal(err)
				}
				states = append(states, st...)
			}
			sum, err := MergeShardStates(states)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := SummaryDigest(sum), SummaryDigest(run.Summary); got != want {
				t.Errorf("range path: summary digest %s, Run %s", got, want)
			}
		})
	}
}
