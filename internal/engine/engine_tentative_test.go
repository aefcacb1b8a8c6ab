package engine

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/topology"
)

// deepTupleEngine builds a three-level chain with materialised tuples:
// src(2) -1:1-> A(2) -merge-> B(1) -1:1-> sink(1). Task IDs: sources
// 0-1, A 2-3, B 4, sink 5. The sink is two hops from the A tasks and
// three from the sources, so it exercises taint propagation and
// correction beyond the first hop.
func deepTupleEngine(t *testing.T, cfg Config, strategies []Strategy) *Engine {
	t.Helper()
	b := topology.NewBuilder()
	src := b.AddSource("src", 2, 10)
	a := b.AddOperator("A", 2, topology.Independent, 1)
	bb := b.AddOperator("B", 1, topology.Independent, 1)
	snk := b.AddOperator("sink", 1, topology.Independent, 1)
	b.Connect(src, a, topology.OneToOne)
	b.Connect(a, bb, topology.Merge)
	b.Connect(bb, snk, topology.OneToOne)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	clus := cluster.New(6, 6)
	if err := clus.PlaceRoundRobin(topo); err != nil {
		t.Fatal(err)
	}
	e, err := New(Setup{
		Topology: topo,
		Cluster:  clus,
		Config:   cfg,
		Sources: map[int]SourceFactory{0: func(idx int) SourceFunc {
			return FuncSource(func(b int) Batch {
				var ts []Tuple
				for j := 0; j < 10; j++ {
					ts = append(ts, Tuple{Key: fmt.Sprintf("s%d-b%d-k%d", idx, b, j), Value: b})
				}
				return Batch{Count: len(ts), Tuples: ts}
			})
		}},
		Operators: map[int]OperatorFactory{
			1: NewPassthroughFactory(),
			2: NewPassthroughFactory(),
			3: NewPassthroughFactory(),
		},
		Strategies: strategies,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestMultiHopTentativeTaint: a sink two hops away from a failed task
// flags its outputs tentative — the taint travels with every emitted
// batch, not just one hop out of the fabrication.
func TestMultiHopTentativeTaint(t *testing.T) {
	strategies := allStrategies(6, StrategyCheckpoint)
	strategies[2] = StrategyNone // A[0] never recovers
	e := deepTupleEngine(t, Config{TentativeOutputs: true}, strategies)
	e.ScheduleTaskFailures([]topology.TaskID{2}, 10.2)
	e.Run(40)
	if p := e.TaskProgress(5); p < 30 {
		t.Fatalf("sink progress %d, want tentative progress past 30", p)
	}
	sawTentative, sawFirmBefore := false, false
	for _, rec := range e.SinkRecords() {
		if rec.Task != 5 {
			t.Fatalf("record at unexpected task %d", rec.Task)
		}
		if rec.Batch < 9 && !rec.Tentative {
			sawFirmBefore = true
		}
		// The failure window: detection at 15, fabrication from then on.
		if rec.Batch >= 16 && rec.Batch <= 30 && rec.Tentative {
			sawTentative = true
			// Tentative batches carry only the surviving path's tuples.
			if rec.Tuple.Key[:2] == "s0" {
				t.Errorf("tentative batch %d contains tuple %q from the failed path", rec.Batch, rec.Tuple.Key)
			}
		}
	}
	if !sawFirmBefore {
		t.Error("no firm outputs before the failure")
	}
	if !sawTentative {
		t.Error("no tentative-flagged outputs at the sink two hops from the failure")
	}
	acc := e.AccuracyStats()
	if acc.TentativeBatches == 0 || acc.TentativeFraction() <= 0 {
		t.Errorf("accuracy stats report no tentative output: %+v", acc)
	}
	if acc.CorrectedBatches != 0 {
		t.Errorf("%d batches corrected although the failed task never recovers", acc.CorrectedBatches)
	}
}

// TestAmendmentCorrectionAfterRecovery: once the failed task recovers,
// the downstream tasks that consumed fabricated batches reprocess the
// real data and amendment records reach the sink, closing the output
// gap and stamping each tentative batch with a correction time.
func TestAmendmentCorrectionAfterRecovery(t *testing.T) {
	e := deepTupleEngine(t, Config{TentativeOutputs: true, CheckpointInterval: 5}, nil)
	e.ScheduleTaskFailures([]topology.TaskID{2}, 20.2) // A[0], checkpoint recovery
	e.Run(120)
	stats := e.RecoveryStats()
	if len(stats) != 1 || !stats[0].Recovered {
		t.Fatalf("recovery failed: %+v", stats)
	}
	acc := e.AccuracyStats()
	if acc.TentativeBatches == 0 {
		t.Fatal("no tentative batches during the failure window")
	}
	if acc.CorrectedBatches == 0 {
		t.Fatal("no corrections after recovery")
	}
	if acc.CorrectedFraction() < 1 {
		t.Errorf("corrected fraction %v, want 1 (every tentative batch correctable)", acc.CorrectedFraction())
	}
	for _, d := range acc.CorrectionDelays {
		if d <= 0 || d > 120 {
			t.Errorf("implausible time-to-correction %v", d)
		}
	}
	sawAmendment := false
	for _, rec := range e.SinkRecords() {
		if rec.Amendment {
			sawAmendment = true
			if rec.Tuple.Key[:2] != "s0" {
				t.Errorf("amendment carries tuple %q, want only the failed path's data", rec.Tuple.Key)
			}
		}
	}
	if !sawAmendment {
		t.Error("no amendment records at the sink")
	}

	// The corrections close the output gap: the run's deduplicated sink
	// volume matches the failure-free baseline over the common progress.
	base := deepTupleEngine(t, Config{TentativeOutputs: true, CheckpointInterval: 5}, nil)
	base.Run(120)
	if got, want := e.TaskProgress(5), base.TaskProgress(5); got != want {
		t.Fatalf("sink progress %d differs from baseline %d", got, want)
	}
	if got, want := e.SinkTupleCount(), base.SinkTupleCount(); got != want {
		t.Errorf("corrected sink volume %d, want baseline %d", got, want)
	}
}

// TestFailureFreeFirmOnly: without failures the tentative machinery is
// inert — no tentative or amendment records, zero accuracy stats, and a
// sink volume bit-identical to a run with the feature disabled.
func TestFailureFreeFirmOnly(t *testing.T) {
	on := deepTupleEngine(t, Config{TentativeOutputs: true, CheckpointInterval: 5}, nil)
	on.Run(60)
	for _, rec := range on.SinkRecords() {
		if rec.Tentative || rec.Amendment {
			t.Fatalf("failure-free run produced tentative/amendment record %+v", rec)
		}
	}
	acc := on.AccuracyStats()
	if acc.TentativeBatches != 0 || acc.TentativeTuples != 0 || acc.CorrectedBatches != 0 || acc.AmendedTuples != 0 {
		t.Errorf("failure-free accuracy stats not zero: %+v", acc)
	}
	if acc.FirmBatches == 0 || acc.FirmTuples == 0 {
		t.Error("failure-free run recorded no firm output")
	}

	off := deepTupleEngine(t, Config{CheckpointInterval: 5}, nil)
	off.Run(60)
	if on.SinkTupleCount() != off.SinkTupleCount() {
		t.Errorf("TentativeOutputs changed the failure-free sink volume: %d vs %d",
			on.SinkTupleCount(), off.SinkTupleCount())
	}
	if on.TaskProgress(5) != off.TaskProgress(5) {
		t.Errorf("TentativeOutputs changed the failure-free sink progress: %d vs %d",
			on.TaskProgress(5), off.TaskProgress(5))
	}
}

// TestSinkRestoreNoDoubleCount: a restored sink reprocesses batches it
// already recorded; the per-(task, batch) accounting must not count
// them twice, so the recovered run's volume equals the baseline's at
// equal progress (before the fix it exceeded it, masked by the loss
// clamp).
func TestSinkRestoreNoDoubleCount(t *testing.T) {
	base := deepTupleEngine(t, Config{CheckpointInterval: 5}, nil)
	base.Run(120)

	e := deepTupleEngine(t, Config{CheckpointInterval: 5}, nil)
	e.ScheduleTaskFailures([]topology.TaskID{5}, 20.2) // the sink task
	e.Run(120)
	stats := e.RecoveryStats()
	if len(stats) != 1 || !stats[0].Recovered {
		t.Fatalf("sink recovery failed: %+v", stats)
	}
	if got, want := e.TaskProgress(5), base.TaskProgress(5); got != want {
		t.Fatalf("sink progress %d differs from baseline %d", got, want)
	}
	if got, want := e.SinkTupleCount(), base.SinkTupleCount(); got != want {
		t.Errorf("sink volume after restore = %d, want %d (no double counting)", got, want)
	}
	// And the record stream has no duplicates either.
	seen := map[string]int{}
	for _, rec := range e.SinkRecords() {
		seen[rec.Tuple.Key]++
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("tuple %s recorded %d times", k, n)
		}
	}
}

// TestMultiWaveNoDoubleAmendment: a task that corrected a tentative
// batch and is then killed before its next checkpoint is restored with
// the owed-input record of that batch; the recovery replay resends the
// same firm data, and without the settle write-through to the stored
// checkpoint the amendment would fire twice, pushing the sink volume
// past the failure-free baseline (negative output loss).
func TestMultiWaveNoDoubleAmendment(t *testing.T) {
	cfg := Config{TentativeOutputs: true, CheckpointInterval: 15, ProcRate: 30}
	base := deepTupleEngine(t, cfg, nil)
	base.Run(200)

	e := deepTupleEngine(t, cfg, nil)
	e.ScheduleTaskFailures([]topology.TaskID{2}, 20.2) // A[0]: slow checkpoint reprocessing
	e.ScheduleTaskFailures([]topology.TaskID{4}, 32.2) // B, right after its corrections
	e.Run(200)
	for _, st := range e.RecoveryStats() {
		if !st.Recovered {
			t.Fatalf("task %d not recovered: %+v", st.Task, st)
		}
	}
	acc := e.AccuracyStats()
	if acc.TentativeBatches == 0 || acc.CorrectedBatches == 0 {
		t.Fatalf("scenario produced no tentative/corrected batches: %+v", acc)
	}
	if got, want := e.TaskProgress(5), base.TaskProgress(5); got != want {
		t.Fatalf("sink progress %d differs from baseline %d", got, want)
	}
	if got, want := e.SinkTupleCount(), base.SinkTupleCount(); got > want {
		t.Errorf("sink volume %d exceeds failure-free baseline %d (amendment double-count)", got, want)
	}
}

// TestDecodeIntError: a truncated source checkpoint payload is an
// explicit error, not a silent restart from batch 0.
func TestDecodeIntError(t *testing.T) {
	if v, err := decodeInt(binary.LittleEndian.AppendUint64(nil, 42)); err != nil || v != 42 {
		t.Fatalf("decodeInt(42 little-endian) = %d, %v", v, err)
	}
	if _, err := decodeInt([]byte{1, 2, 3}); err == nil {
		t.Error("truncated payload decoded without error")
	}
	if _, err := decodeInt(nil); err == nil {
		t.Error("empty payload decoded without error")
	}
}

// TestDeadReplicaNotAcked: the periodic progress ack skips (and stops
// for) a replica whose standby node failed — acking it would trim a
// buffer nobody can ever use.
func TestDeadReplicaNotAcked(t *testing.T) {
	e := newChainEngine(t, Config{CheckpointInterval: 5, ReplicaTrimInterval: 5},
		allStrategies(5, StrategyActive))
	standby, ok := e.clus.ReplicaNodeOf(2)
	if !ok {
		t.Fatal("no replica placed for task 2")
	}
	e.ScheduleNodeFailures([]cluster.NodeID{standby}, 2.0) // before the first trim at 5
	e.Run(30)
	reps := 0
	for id := range e.replicas {
		rep := e.replicas[id]
		if rep == nil {
			continue
		}
		if n, ok := e.clus.ReplicaNodeOf(topology.TaskID(id)); ok && n == standby {
			reps++
			if !rep.failed {
				t.Errorf("replica of task %d survived its standby node", id)
			}
			if rep.ackBatch != -1 {
				t.Errorf("dead replica of task %d was acked to batch %d", id, rep.ackBatch)
			}
		}
	}
	if reps == 0 {
		t.Fatal("standby node hosted no replicas; placement changed?")
	}
}

// TestRecoveryPollIntervalDefault pins the upstream recovery poll: it
// scales with the heartbeat instead of a magic constant.
func TestRecoveryPollIntervalDefault(t *testing.T) {
	if p := (Config{}).withDefaults().recoveryPoll(); p != 0.25 {
		t.Errorf("recovery poll = %v for the default 5s heartbeat, want 0.25", p)
	}
	if p := (Config{HeartbeatInterval: 10}).withDefaults().recoveryPoll(); p != 0.5 {
		t.Errorf("recovery poll = %v for a 10s heartbeat, want 0.5", p)
	}
}
