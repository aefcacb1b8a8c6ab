package engine

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/topology"
)

// resetFingerprint summarises everything an engine run reports.
type resetFingerprint struct {
	sinkTuples int
	records    int
	recovered  int
	acc        AccuracyStats
	progress   []int
}

func fingerprint(e *Engine) resetFingerprint {
	fp := resetFingerprint{
		sinkTuples: e.SinkTupleCount(),
		records:    len(e.SinkRecords()),
		acc:        e.AccuracyStats(),
	}
	for _, st := range e.RecoveryStats() {
		if st.Recovered {
			fp.recovered++
		}
	}
	for id := range e.tasks {
		fp.progress = append(fp.progress, e.TaskProgress(topology.TaskID(id)))
	}
	return fp
}

func eqFingerprint(a, b resetFingerprint) bool { return reflect.DeepEqual(a, b) }

// TestEngineResetBitIdentical runs a failure scenario, resets the
// engine, and checks both a failure-free rerun and a repeat of the same
// scenario reproduce exactly what fresh engines produce: Reset leaks no
// state from the previous run in either direction. An engine marked
// mid-run resets onto its image and reproduces fresh from-zero runs of
// several failure scenarios, correction delays included; it is marked
// with events pending on every lane of its clock. Mark refuses once a
// failure is scheduled.
func TestEngineResetBitIdentical(t *testing.T) {
	setup := func() Setup {
		topo := chainTopo(1000)
		c := cluster.New(5, 3)
		if _, err := c.BuildDomains(cluster.Layout{Zones: 1, RacksPerZone: 2, SpreadStandby: true}); err != nil {
			t.Fatal(err)
		}
		if err := c.PlaceRoundRobin(topo); err != nil {
			t.Fatal(err)
		}
		return Setup{
			Topology:   topo,
			Cluster:    c,
			Config:     Config{CheckpointInterval: 10, TentativeOutputs: true},
			Sources:    map[int]SourceFactory{0: NewCountSourceFactory(1000)},
			Operators:  map[int]OperatorFactory{1: NewWindowCountFactory(5, 1), 2: NewWindowCountFactory(5, 1)},
			Strategies: allStrategies(5, StrategyActive),
		}
	}
	scenario := func(e *Engine) {
		e.ScheduleNodeFailures([]cluster.NodeID{0, 1}, 20.25)
		e.Run(90)
	}

	// Fresh engine, failure run.
	fresh1, err := New(setup())
	if err != nil {
		t.Fatal(err)
	}
	scenario(fresh1)
	failFP := fingerprint(fresh1)
	if failFP.recovered == 0 {
		t.Fatal("scenario recovered nothing; test misconfigured")
	}

	// Fresh engine, failure-free run.
	fresh2, err := New(setup())
	if err != nil {
		t.Fatal(err)
	}
	fresh2.Run(90)
	cleanFP := fingerprint(fresh2)
	if eqFingerprint(failFP, cleanFP) {
		t.Fatal("failure scenario indistinguishable from failure-free run; test misconfigured")
	}

	// Reset after a failure run must reproduce the failure-free run.
	fresh1.Reset()
	fresh1.Run(90)
	if got := fingerprint(fresh1); !eqFingerprint(got, cleanFP) {
		t.Errorf("reset-after-failure run diverged: %+v vs fresh %+v", got, cleanFP)
	}

	// Reset and repeat the same scenario: same outcome as the first run,
	// correction delays included.
	fresh1.Reset()
	scenario(fresh1)
	if got := fingerprint(fresh1); !eqFingerprint(got, failFP) {
		t.Errorf("reset scenario rerun diverged: %+v vs fresh %+v", got, failFP)
	}
	if len(failFP.acc.CorrectionDelays) == 0 {
		t.Error("scenario corrected nothing; test misconfigured")
	}

	// Scenarios for the marked engine, all failing after its mark at 20,
	// the first right after Mark and the others after a Reset: a
	// source's node at 21, when batch tick 20 fires too (the wave must
	// fire first, as on a fresh engine, or the source emits batch 20);
	// two nodes; and two waves out of time order, the earlier one tied
	// with a batch tick likewise.
	scenarios := []func(e *Engine){
		func(e *Engine) {
			e.ScheduleNodeFailures([]cluster.NodeID{1}, 21)
			e.Run(90)
		},
		scenario,
		func(e *Engine) {
			e.ScheduleNodeFailures([]cluster.NodeID{3}, 30)
			e.ScheduleNodeFailures([]cluster.NodeID{0}, 25)
			e.Run(90)
		},
	}
	marked, err := New(setup())
	if err != nil {
		t.Fatal(err)
	}
	marked.Run(20)
	// Every lane holds events at the mark — deliveries and trims,
	// checkpoints, and the heartbeat and replica acks, which share the
	// 5 s lane — so the image records all of them; Mark's restore moves
	// them to the heap, and they return to their lanes as they re-arm.
	lanes := []sim.Time{marked.cfg.NetDelay, marked.cfg.CheckpointInterval, marked.cfg.HeartbeatInterval, marked.cfg.ReplicaTrimInterval}
	for _, d := range lanes {
		if n := marked.clock.LanePending(d); n <= 0 {
			t.Fatalf("%d events pending on the %v lane at the mark, want some", n, d)
		}
	}
	if err := marked.Mark(); err != nil {
		t.Fatal(err)
	}
	for _, d := range lanes {
		if n := marked.clock.LanePending(d); n != 0 {
			t.Fatalf("%d events pending on the %v lane after Mark, want 0", n, d)
		}
	}
	for i, sc := range scenarios {
		fresh, err := New(setup())
		if err != nil {
			t.Fatal(err)
		}
		sc(fresh)
		want := fingerprint(fresh)
		if i > 0 {
			marked.Reset()
		}
		sc(marked)
		if got := fingerprint(marked); !eqFingerprint(got, want) {
			t.Errorf("marked scenario %d diverged: %+v vs fresh %+v", i, got, want)
		}
		if err := marked.Mark(); err == nil {
			t.Errorf("Mark after scenario %d's failures: no error", i)
		}
	}
	marked.Reset()
	marked.Run(90)
	if got := fingerprint(marked); !eqFingerprint(got, cleanFP) {
		t.Errorf("marked failure-free run diverged: %+v vs fresh %+v", got, cleanFP)
	}

	// A failure scheduled but not yet fired bars Mark just the same.
	marked.Reset()
	marked.ScheduleNodeFailures([]cluster.NodeID{1}, 40)
	if err := marked.Mark(); err == nil {
		t.Error("Mark after ScheduleNodeFailures: no error")
	}
}
