package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

// TestSourceFailureCheckpointRecovery: a failed source task regenerates
// its missed batches on recovery and the downstream totals stay exact.
func TestSourceFailureCheckpointRecovery(t *testing.T) {
	e := newChainEngine(t, Config{CheckpointInterval: 5}, nil)
	e.ScheduleTaskFailures([]topology.TaskID{0}, 20.2) // a source task
	e.Run(120)
	stats := e.RecoveryStats()
	if len(stats) != 1 || !stats[0].Recovered {
		t.Fatalf("source recovery failed: %+v", stats)
	}
	sink := e.topo.SinkTasks()[0]
	srt := e.tasks[sink]
	var total int64
	for _, c := range srt.tupleProgress {
		total += c
	}
	if want := int64(1000) * int64(srt.processedBatch+1); total != want {
		t.Errorf("sink consumed %d tuples, want %d after source recovery", total, want)
	}
}

// TestRepeatedFailure: a task that fails again after recovering is
// recovered again.
func TestRepeatedFailure(t *testing.T) {
	e := newChainEngine(t, Config{CheckpointInterval: 5}, nil)
	e.ScheduleTaskFailures([]topology.TaskID{2}, 20.2)
	e.ScheduleTaskFailures([]topology.TaskID{2}, 60.2)
	e.Run(160)
	stats := e.RecoveryStats()
	if len(stats) != 2 {
		t.Fatalf("stats = %+v, want two recorded failures", stats)
	}
	for _, st := range stats {
		if !st.Recovered {
			t.Fatalf("failure at %v not recovered", st.FailedAt)
		}
	}
	// The task must be caught up after the second recovery.
	if got, cur := e.TaskProgress(2), e.currentBatch; cur-got > 3 {
		t.Errorf("task progress %d lags current batch %d after repeated failure", got, cur)
	}
}

// TestMultipleRunCalls: Run may be invoked repeatedly with growing
// horizons without duplicating ticker chains (checkpoint CPU must match
// a single long run).
func TestMultipleRunCalls(t *testing.T) {
	a := newChainEngine(t, Config{CheckpointInterval: 5}, nil)
	a.Run(30)
	a.Run(60)
	a.Run(90)

	b := newChainEngine(t, Config{CheckpointInterval: 5}, nil)
	b.Run(90)

	sa, sb := a.CPUStats(), b.CPUStats()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("task %d: split runs diverge from single run: %+v vs %+v", i, sa[i], sb[i])
		}
	}
	if a.TaskProgress(4) != b.TaskProgress(4) {
		t.Fatalf("sink progress differs: %d vs %d", a.TaskProgress(4), b.TaskProgress(4))
	}
}

// TestEmitCountConservation: EmitCount distributes exactly n tuples over
// each route regardless of weights (property test of the cumulative
// rounding).
func TestEmitCountConservation(t *testing.T) {
	check := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%5000) + 1
		parts := 1 + rng.Intn(7)
		b := topology.NewBuilder()
		src := b.AddSource("s", 1, 100)
		down := b.AddOperator("d", parts, topology.Independent, 1)
		w := make([]float64, parts)
		for i := range w {
			w[i] = 0.1 + rng.Float64()*10
		}
		b.SetWeights(down, w)
		b.Connect(src, down, topology.Full)
		topo, err := b.Build()
		if err != nil {
			return false
		}
		e, err := New(Setup{
			Topology:  topo,
			Sources:   map[int]SourceFactory{0: NewCountSourceFactory(1)},
			Operators: map[int]OperatorFactory{1: NewPassthroughFactory()},
		})
		if err != nil {
			return false
		}
		rt := e.tasks[0]
		rt.EmitCount(n)
		total := 0
		for i := range rt.emitBuf {
			total += rt.emitBuf[i].Count
			rt.emitBuf[i] = Batch{}
		}
		return total == n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCheckpointTrimsUpstreamBuffers: after a downstream checkpoint the
// upstream's buffered batches up to the checkpointed batch are dropped,
// on both the primary and the replica.
func TestCheckpointTrimsUpstreamBuffers(t *testing.T) {
	e := newChainEngine(t, Config{CheckpointInterval: 5, ReplicaTrimInterval: 1000},
		allStrategies(5, StrategyActive))
	e.Run(40)
	// Task 2 (an A task) has downstream task 4 (the B task). After ~40s
	// with 5s checkpoints, old batches must be gone from the buffer.
	for _, rt := range []*taskRuntime{e.tasks[2], e.replicas[2]} {
		if rt == nil {
			t.Fatal("missing runtime")
		}
		buf := bufferedBatches(rt, 4)
		if len(buf) == 0 {
			t.Fatal("no buffered output at all")
		}
		for b := range buf {
			if b <= 20 {
				t.Errorf("batch %d still buffered despite downstream checkpoints", b)
			}
		}
	}
}

// TestNoCheckpointNoTrim: without checkpoints (pure active), the replica
// trims on acks alone.
func TestNoCheckpointNoTrim(t *testing.T) {
	e := newChainEngine(t, Config{ReplicaTrimInterval: 5}, allStrategies(5, StrategyActive))
	e.Run(40)
	rep := e.replicas[2]
	if rep == nil {
		t.Fatal("missing replica")
	}
	for b := range bufferedBatches(rep, 4) {
		if b <= rep.ackBatch-1 {
			t.Errorf("batch %d buffered on replica despite ack %d (no checkpointing)", b, rep.ackBatch)
		}
	}
}

// TestStrategyNoneNeverRecovers: a StrategyNone task stays down but the
// master keeps fabricating punctuations.
func TestStrategyNoneNeverRecovers(t *testing.T) {
	e := newChainEngine(t, Config{TentativeOutputs: true}, allStrategies(5, StrategyNone))
	e.ScheduleTaskFailures([]topology.TaskID{2}, 10.2)
	e.Run(60)
	stats := e.RecoveryStats()
	if len(stats) != 1 || stats[0].Recovered {
		t.Fatalf("StrategyNone task recovered: %+v", stats)
	}
	if stats[0].Latency() != -1 {
		t.Errorf("unrecovered latency = %v, want -1", stats[0].Latency())
	}
	// The sink keeps moving on fabricated punctuations.
	if p := e.TaskProgress(4); p < 50 {
		t.Errorf("sink progress %d, want tentative progress past 50", p)
	}
}

// TestActiveFallbackWithoutReplica: a task marked active whose replica
// is unavailable falls back to checkpoint recovery.
func TestActiveFallbackWithoutReplica(t *testing.T) {
	e := newChainEngine(t, Config{CheckpointInterval: 5}, allStrategies(5, StrategyActive))
	// Sabotage: drop the replica before the failure.
	e.replicas[2] = nil
	e.ScheduleTaskFailures([]topology.TaskID{2}, 20.2)
	e.Run(120)
	stats := e.RecoveryStats()
	if len(stats) != 1 || !stats[0].Recovered {
		t.Fatalf("fallback recovery failed: %+v", stats)
	}
	if l := stats[0].Latency(); l < 0.4 {
		t.Errorf("latency %v suspiciously low for a checkpoint fallback", l)
	}
}
