package engine

import (
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestRunSplicedContract pins RunSpliced's contract on the chain
// topology: a recovered failure splices before the horizon and reports
// exactly what Run to the horizon reports; the spliced engine refuses
// Run and Mark until its Reset; a trajectory is failure-free; and an
// engine of another setup runs to the horizon.
func TestRunSplicedContract(t *testing.T) {
	const horizon = 60
	cfg := Config{CheckpointInterval: 5}
	e := newChainEngine(t, cfg, nil)
	e.Run(10)
	if err := e.Mark(); err != nil {
		t.Fatal(err)
	}
	tr, err := e.RecordTrajectory(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if tr.SinkTupleCount() != e.SinkTupleCount() {
		t.Errorf("trajectory volume %d, want the engine's %d at the horizon", tr.SinkTupleCount(), e.SinkTupleCount())
	}
	scenario := func() {
		e.Reset()
		e.ScheduleNodeFailures([]cluster.NodeID{e.clus.NodeOf(4)}, 15.2)
	}
	scenario()
	e.Run(horizon)
	want := fingerprint(e)
	scenario()
	stop := e.RunSpliced(tr)
	if stop >= horizon {
		t.Fatalf("stopped at %v: a recovered failure should re-converge before the horizon", stop)
	}
	if got := fingerprint(e); !eqFingerprint(got, want) {
		t.Errorf("spliced at %v: %+v, full run %+v", stop, got, want)
	}
	// Without a failure the engine matches at the first boundary.
	e.Reset()
	if stop := e.RunSpliced(tr); stop != 11 {
		t.Errorf("failure-free run stopped at %v, want the first boundary 11", stop)
	}
	if err := e.Mark(); err == nil || !strings.Contains(err.Error(), "RunSpliced") {
		t.Errorf("Mark after a splice: %v, want the RunSpliced error", err)
	}
	mustPanic(t, "Run after a splice", func() { e.Run(horizon) })
	scenario()
	if _, err := e.RecordTrajectory(horizon); err == nil {
		t.Error("RecordTrajectory with a failure scheduled succeeded")
	}
	other := newChainEngine(t, Config{CheckpointInterval: 10}, nil)
	if stop := other.RunSpliced(tr); stop != horizon {
		t.Errorf("an engine of another setup stopped at %v, want the horizon", stop)
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}
