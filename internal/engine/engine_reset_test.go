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
// with events pending on every lane of its clock, which Mark leaves
// there and every Reset puts back. Mark refuses once a failure is
// scheduled.
func TestEngineResetBitIdentical(t *testing.T) {
	setup := func() Setup {
		topo := chainTopo(1000)
		c := cluster.New(5, 3)
		if err := c.BuildDomains(cluster.Layout{Zones: 1, RacksPerZone: 2, SpreadStandby: true}); err != nil {
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
	// 5 s lane — so the image records all of them. Mark leaves them
	// where they are; Reset puts back exactly the recorded events.
	lanes := []sim.Time{netDelay, marked.cfg.CheckpointInterval, marked.cfg.HeartbeatInterval, marked.cfg.ReplicaTrimInterval}
	onLane := make([]int, len(lanes))
	for i, d := range lanes {
		if onLane[i] = marked.clock.LanePending(d); onLane[i] <= 0 {
			t.Fatalf("%d events pending on the %v lane at the mark, want some", onLane[i], d)
		}
	}
	pending := marked.clock.Pending()
	if err := marked.Mark(); err != nil {
		t.Fatal(err)
	}
	for i, d := range lanes {
		if n := marked.clock.LanePending(d); n != onLane[i] {
			t.Fatalf("%d events pending on the %v lane after Mark, want the %d before it", n, d, onLane[i])
		}
	}
	if n := len(marked.img.events); n != pending {
		t.Fatalf("Mark recorded %d events of %d pending", n, pending)
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
			if n := marked.clock.Pending(); n != pending {
				t.Fatalf("scenario %d: %d events pending after Reset, want the %d recorded", i, n, pending)
			}
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

// TestLateFailureFiresFirst schedules a failure of a source task's
// node after Run has passed the mark, without a further Mark, for the
// instant of a pending batch tick. The failure fires first, so the
// source never emits that batch, on an engine that was never marked,
// one marked before and one reset onto that mark alike.
func TestLateFailureFiresFirst(t *testing.T) {
	const tick = 21 // batch 20's tick, armed when batch 19's fired at 20
	for _, name := range []string{"unmarked", "marked", "reset"} {
		e := newChainEngine(t, Config{CheckpointInterval: 5}, nil)
		if name != "unmarked" {
			e.Run(10)
			if err := e.Mark(); err != nil {
				t.Fatal(err)
			}
		}
		if name == "reset" {
			e.Run(30)
			e.Reset()
		}
		e.Run(20)
		src := e.topo.TasksOf(e.topo.SourceOps()[0])[0]
		e.ScheduleNodeFailures([]cluster.NodeID{e.clus.NodeOf(src)}, tick)
		e.Run(tick)
		if got := e.tasks[src].nextBatch; got != 20 {
			t.Errorf("%s: the failed source's next batch is %d, want 20: batch 20's tick fired before the failure", name, got)
		}
		if st := e.RecoveryStats(); len(st) == 0 || st[0].FailedAt != tick {
			t.Errorf("%s: recovery stats %+v, want the source failed at %v", name, st, tick)
		}
	}
}
