package engine

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/topology"
)

// chainTopo builds src(2) -> A(2) -> B(1), merge partitioning.
func chainTopo(rate float64) *topology.Topology {
	b := topology.NewBuilder()
	src := b.AddSource("src", 2, rate)
	a := b.AddOperator("A", 2, topology.Independent, 0.5)
	bb := b.AddOperator("B", 1, topology.Independent, 0.5)
	b.Connect(src, a, topology.OneToOne)
	b.Connect(a, bb, topology.Merge)
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// newChainEngine builds an engine over chainTopo with synthetic window
// operators.
func newChainEngine(t *testing.T, cfg Config, strategies []Strategy) *Engine {
	t.Helper()
	topo := chainTopo(1000)
	clus := cluster.New(5, 5)
	if err := clus.PlaceRoundRobin(topo); err != nil {
		t.Fatal(err)
	}
	windowBatches := cfg.WindowBatches
	if windowBatches == 0 {
		windowBatches = 10
	}
	e, err := New(Setup{
		Topology: topo,
		Cluster:  clus,
		Config:   cfg,
		Sources:  map[int]SourceFactory{0: NewCountSourceFactory(1000)},
		Operators: map[int]OperatorFactory{
			1: NewWindowCountFactory(windowBatches, 0.5),
			2: NewWindowCountFactory(windowBatches, 0.5),
		},
		Strategies: strategies,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func allStrategies(n int, s Strategy) []Strategy {
	out := make([]Strategy, n)
	for i := range out {
		out[i] = s
	}
	return out
}

func TestNoFailureProgress(t *testing.T) {
	e := newChainEngine(t, Config{}, nil)
	e.Run(20)
	// Sources emitted batches 0..18 (batch b at time b+1), downstream a
	// little behind due to network and processing delay.
	sink := e.topo.SinkTasks()[0]
	if got := e.TaskProgress(sink); got < 15 {
		t.Errorf("sink progress = %d, want >= 15 after 20s", got)
	}
	// Flow: each A task gets 1000 tuples per batch, emits 500; the B
	// task gets 2x500 per batch.
	srt := e.tasks[sink]
	var total int64
	for _, c := range srt.tupleProgress {
		total += c
	}
	wantPerBatch := int64(1000)
	processed := int64(srt.processedBatch + 1)
	if total != wantPerBatch*processed {
		t.Errorf("sink consumed %d tuples over %d batches, want %d", total, processed, wantPerBatch*processed)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() ([]CPUStat, int) {
		e := newChainEngine(t, Config{CheckpointInterval: 5}, nil)
		e.ScheduleTaskFailures([]topology.TaskID{2}, 12.3)
		e.Run(60)
		return e.CPUStats(), e.TaskProgress(e.topo.SinkTasks()[0])
	}
	c1, p1 := run()
	c2, p2 := run()
	if p1 != p2 {
		t.Fatalf("sink progress differs: %d vs %d", p1, p2)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("CPU stats differ at task %d: %+v vs %+v", i, c1[i], c2[i])
		}
	}
}

func TestCheckpointRecoverySingleFailure(t *testing.T) {
	e := newChainEngine(t, Config{CheckpointInterval: 5}, nil)
	failed := topology.TaskID(2) // first A task
	e.ScheduleTaskFailures([]topology.TaskID{failed}, 20.2)
	e.Run(120)
	stats := e.RecoveryStats()
	if len(stats) != 1 {
		t.Fatalf("stats = %+v, want 1 entry", stats)
	}
	st := stats[0]
	if !st.Recovered {
		t.Fatalf("task not recovered: %+v", st)
	}
	if st.DetectedAt < st.FailedAt || st.DetectedAt > st.FailedAt+5 {
		t.Errorf("detection at %v for failure at %v (heartbeat 5s)", st.DetectedAt, st.FailedAt)
	}
	if l := st.Latency(); l <= 0 || l > 60 {
		t.Errorf("latency = %v, want (0, 60)", l)
	}
	// The task must be caught up with the live topology afterwards.
	if got, cur := e.TaskProgress(failed), e.currentBatch; cur-got > 3 {
		t.Errorf("recovered task progress %d lags current batch %d", got, cur)
	}
	// And the sink must have kept its total input exact (no loss, no
	// duplication) despite the failure.
	sink := e.topo.SinkTasks()[0]
	srt := e.tasks[sink]
	var total int64
	for _, c := range srt.tupleProgress {
		total += c
	}
	if want := int64(1000) * int64(srt.processedBatch+1); total != want {
		t.Errorf("sink consumed %d tuples, want %d (exactness)", total, want)
	}
}

func TestCheckpointIntervalShape(t *testing.T) {
	latency := func(interval sim.Time) sim.Time {
		e := newChainEngine(t, Config{CheckpointInterval: interval}, nil)
		e.ScheduleTaskFailures([]topology.TaskID{2}, 40.2)
		e.Run(150)
		stats := e.RecoveryStats()
		if len(stats) != 1 || !stats[0].Recovered {
			t.Fatalf("interval %v: no recovery: %+v", interval, stats)
		}
		return stats[0].Latency()
	}
	l5, l30 := latency(5), latency(30)
	if l30 <= l5 {
		t.Errorf("latency(ckpt=30s) = %v should exceed latency(ckpt=5s) = %v", l30, l5)
	}
}

func TestActiveRecoveryFast(t *testing.T) {
	n := 5 // tasks in chainTopo
	eA := newChainEngine(t, Config{CheckpointInterval: 5}, allStrategies(n, StrategyActive))
	eA.ScheduleTaskFailures([]topology.TaskID{2}, 20.2)
	eA.Run(120)
	aStats := eA.RecoveryStats()
	if len(aStats) != 1 || !aStats[0].Recovered {
		t.Fatalf("active: %+v", aStats)
	}

	eC := newChainEngine(t, Config{CheckpointInterval: 5}, nil)
	eC.ScheduleTaskFailures([]topology.TaskID{2}, 20.2)
	eC.Run(120)
	cStats := eC.RecoveryStats()
	if len(cStats) != 1 || !cStats[0].Recovered {
		t.Fatalf("checkpoint: %+v", cStats)
	}
	if aStats[0].Latency() >= cStats[0].Latency() {
		t.Errorf("active latency %v should beat checkpoint latency %v",
			aStats[0].Latency(), cStats[0].Latency())
	}
	if aStats[0].Latency() > 3 {
		t.Errorf("active latency %v unexpectedly high", aStats[0].Latency())
	}
}

func TestReplicaTrimIntervalShape(t *testing.T) {
	latency := func(trim sim.Time) sim.Time {
		e := newChainEngine(t, Config{CheckpointInterval: 5, ReplicaTrimInterval: trim},
			allStrategies(5, StrategyActive))
		e.ScheduleTaskFailures([]topology.TaskID{2}, 40.2)
		e.Run(120)
		stats := e.RecoveryStats()
		if len(stats) != 1 || !stats[0].Recovered {
			t.Fatalf("trim %v: %+v", trim, stats)
		}
		return stats[0].Latency()
	}
	l5, l30 := latency(5), latency(30)
	if l30 < l5 {
		t.Errorf("latency(trim=30s) = %v should be >= latency(trim=5s) = %v", l30, l5)
	}
}

func TestSourceReplayRecovery(t *testing.T) {
	latency := func(windowBatches int) sim.Time {
		e := newChainEngine(t, Config{WindowBatches: windowBatches},
			allStrategies(5, StrategySourceReplay))
		e.ScheduleTaskFailures([]topology.TaskID{2}, 60.2)
		e.Run(200)
		stats := e.RecoveryStats()
		if len(stats) != 1 || !stats[0].Recovered {
			t.Fatalf("window %d: %+v", windowBatches, stats)
		}
		return stats[0].Latency()
	}
	l10, l30 := latency(10), latency(30)
	if l30 <= l10 {
		t.Errorf("storm latency(window=30) = %v should exceed latency(window=10) = %v", l30, l10)
	}
}

func TestCorrelatedFailureSynchronisation(t *testing.T) {
	e := newChainEngine(t, Config{CheckpointInterval: 5}, nil)
	// Fail both levels: one A task and the B task.
	e.ScheduleTaskFailures([]topology.TaskID{2, 3, 4}, 30.2)
	e.Run(200)
	stats := e.RecoveryStats()
	if len(stats) != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	var aRec, bRec sim.Time
	for _, st := range stats {
		if !st.Recovered {
			t.Fatalf("task %d not recovered", st.Task)
		}
		switch st.Task {
		case 2:
			aRec = st.RecoveredAt
		case 4:
			bRec = st.RecoveredAt
		}
	}
	// The downstream task depends on the upstream's replay; it cannot
	// finish before its failed upstream.
	if bRec < aRec {
		t.Errorf("downstream recovered at %v before upstream at %v", bRec, aRec)
	}
}

func TestCheckpointCPUShape(t *testing.T) {
	ratio := func(interval sim.Time) float64 {
		e := newChainEngine(t, Config{CheckpointInterval: interval, WindowBatches: 30}, nil)
		e.Run(120)
		var proc, ck sim.Time
		for _, st := range e.CPUStats() {
			proc += st.ProcCPU
			ck += st.CkptCPU
		}
		if proc == 0 {
			t.Fatal("no processing CPU recorded")
		}
		return float64(ck) / float64(proc)
	}
	r1, r15 := ratio(1), ratio(15)
	if r1 <= r15 {
		t.Errorf("checkpoint CPU ratio at 1s (%v) should exceed ratio at 15s (%v)", r1, r15)
	}
	if r1 <= 0 {
		t.Error("checkpoint CPU ratio is zero")
	}
}

// tupleEngine builds a two-path chain src(2) -1:1-> mid(2) -merge->
// sink(1) with materialised tuples, for exactness and tentative-output
// tests. Task IDs: sources 0-1, mids 2-3, sink 4.
func tupleEngine(t *testing.T, cfg Config, strategies []Strategy) *Engine {
	t.Helper()
	b := topology.NewBuilder()
	src := b.AddSource("src", 2, 10)
	mid := b.AddOperator("mid", 2, topology.Independent, 1)
	snk := b.AddOperator("sink", 1, topology.Independent, 1)
	b.Connect(src, mid, topology.OneToOne)
	b.Connect(mid, snk, topology.Merge)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	clus := cluster.New(5, 5)
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
		},
		Strategies: strategies,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func sinkKeySet(e *Engine) map[string]int {
	out := map[string]int{}
	for _, rec := range e.SinkRecords() {
		out[rec.Tuple.Key]++
	}
	return out
}

// TestRecoveryExactness: after a checkpoint recovery without tentative
// outputs, the sink sees every tuple exactly once — identical to a
// failure-free run.
func TestRecoveryExactness(t *testing.T) {
	base := tupleEngine(t, Config{CheckpointInterval: 5}, nil)
	base.Run(60)
	want := sinkKeySet(base)

	e := tupleEngine(t, Config{CheckpointInterval: 5}, nil)
	e.ScheduleTaskFailures([]topology.TaskID{2}, 20.2) // first mid task
	e.Run(60)
	stats := e.RecoveryStats()
	if len(stats) != 1 || !stats[0].Recovered {
		t.Fatalf("recovery failed: %+v", stats)
	}
	got := sinkKeySet(e)
	// Compare the common prefix of batches both runs fully processed.
	limit := min(e.TaskProgress(4), base.TaskProgress(4))
	for b := 0; b <= limit; b++ {
		for s := 0; s < 2; s++ {
			for j := 0; j < 10; j++ {
				k := fmt.Sprintf("s%d-b%d-k%d", s, b, j)
				if want[k] != 1 {
					t.Fatalf("baseline missing %s", k)
				}
				if got[k] != 1 {
					t.Errorf("recovered run saw %s %d times, want exactly once", k, got[k])
				}
			}
		}
	}
}

// TestTentativeOutputs: with fabricated punctuations the sink keeps
// producing (tentative) results while the failed task slowly recovers;
// without them it stalls until the recovering task catches up. Recovery
// is made slow by disabling checkpoints (cold restart reprocesses from
// batch 0) and throttling the processing rate.
func TestTentativeOutputs(t *testing.T) {
	slow := Config{ProcRate: 50, TentativeOutputs: true}
	e := tupleEngine(t, slow, nil)
	e.ScheduleTaskFailures([]topology.TaskID{2}, 20.2)
	e.Run(30) // mid-recovery: the failed task is still replaying
	tentative := 0
	for _, rec := range e.SinkRecords() {
		if rec.Tentative {
			tentative++
		}
	}
	if tentative == 0 {
		t.Error("tentative mode produced no tentative-flagged outputs")
	}
	if p := e.TaskProgress(4); p < 26 {
		t.Errorf("tentative mode: sink progress %d, want >= 26 at t=30", p)
	}

	slow.TentativeOutputs = false
	stall := tupleEngine(t, slow, nil)
	stall.ScheduleTaskFailures([]topology.TaskID{2}, 20.2)
	stall.Run(30)
	if p := stall.TaskProgress(4); p > 22 {
		t.Errorf("without tentative outputs sink progress %d should stall near the failure point", p)
	}
}

// TestTentativeBatchesMarked: batches closed by fabricated punctuations
// are flagged tentative at the sink.
func TestTentativeBatchesMarked(t *testing.T) {
	b := topology.NewBuilder()
	src := b.AddSource("src", 2, 10)
	snk := b.AddOperator("sink", 1, topology.Independent, 1)
	b.Connect(src, snk, topology.Merge)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	clus := cluster.New(3, 3)
	if err := clus.PlaceRoundRobin(topo); err != nil {
		t.Fatal(err)
	}
	e, err := New(Setup{
		Topology: topo,
		Cluster:  clus,
		Config:   Config{CheckpointInterval: 30, TentativeOutputs: true},
		Sources: map[int]SourceFactory{0: func(idx int) SourceFunc {
			return FuncSource(func(bi int) Batch {
				return Batch{Count: 1, Tuples: []Tuple{{Key: fmt.Sprintf("s%d-b%d", idx, bi)}}}
			})
		}},
		Operators: map[int]OperatorFactory{1: NewPassthroughFactory()},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.ScheduleTaskFailures([]topology.TaskID{0}, 10.2) // one source task
	e.Run(30)
	// The failure window spans from the stall (~batch 10) to recovery
	// shortly after detection at t=15; those batches close with a
	// fabricated punctuation and must be flagged.
	sawTentative, sawExactAfter := false, false
	for _, rec := range e.SinkRecords() {
		if rec.Batch >= 10 && rec.Batch <= 14 && rec.Tentative {
			sawTentative = true
		}
		if rec.Batch >= 20 && !rec.Tentative {
			sawExactAfter = true
		}
	}
	if !sawTentative {
		t.Error("no tentative outputs flagged during the failure window")
	}
	if !sawExactAfter {
		t.Error("no exact outputs after recovery")
	}
}

// TestReplicaMirrorsPrimary: before any failure the replica's buffered
// outputs are identical to the primary's (the identical-processing-order
// guarantee of §V-B).
func TestReplicaMirrorsPrimary(t *testing.T) {
	e := tupleEngine(t, Config{CheckpointInterval: 5, ReplicaTrimInterval: 1000},
		allStrategies(5, StrategyActive))
	e.Run(30)
	for id := 0; id < 5; id++ {
		prim := e.tasks[id]
		rep := e.replicas[id]
		if rep == nil {
			t.Fatalf("task %d has no replica", id)
		}
		if rep.isSource {
			continue // sources are generators, replicas idle
		}
		if rep.processedBatch < prim.processedBatch-2 {
			t.Errorf("replica of %d lags: %d vs %d", id, rep.processedBatch, prim.processedBatch)
		}
		for _, d := range prim.downs {
			buf, rbuf := bufferedBatches(prim, d.id), bufferedBatches(rep, d.id)
			for batch, content := range buf {
				if batch > rep.processedBatch {
					continue
				}
				rcontent, ok := rbuf[batch]
				if !ok {
					t.Errorf("replica of %d missing batch %d for %d", id, batch, d)
					continue
				}
				if rcontent.Count != content.Count || len(rcontent.Tuples) != len(content.Tuples) {
					t.Errorf("replica of %d batch %d differs: %d/%d tuples", id, batch, rcontent.Count, content.Count)
					continue
				}
				for i := range content.Tuples {
					if content.Tuples[i].Key != rcontent.Tuples[i].Key {
						t.Errorf("replica of %d batch %d tuple %d key %q != %q",
							id, batch, i, rcontent.Tuples[i].Key, content.Tuples[i].Key)
					}
				}
			}
		}
	}
}

func TestSetupValidation(t *testing.T) {
	topo := chainTopo(100)
	if _, err := New(Setup{Topology: topo}); err == nil {
		t.Error("missing source factory accepted")
	}
	if _, err := New(Setup{
		Topology: topo,
		Sources:  map[int]SourceFactory{0: NewCountSourceFactory(10)},
	}); err == nil {
		t.Error("missing operator factory accepted")
	}
	if _, err := New(Setup{
		Topology: topo,
		Sources:  map[int]SourceFactory{0: NewCountSourceFactory(10)},
		Operators: map[int]OperatorFactory{
			1: NewPassthroughFactory(), 2: NewPassthroughFactory(),
		},
		Strategies: make([]Strategy, 1),
	}); err == nil {
		t.Error("wrong-length strategies accepted")
	}
	if _, err := New(Setup{}); err == nil {
		t.Error("nil topology accepted")
	}
}

// TestNegativeNetDelayRejected: the Config is outside input (it reaches
// workers as JSON), and a negative delay would schedule deliveries
// before now, so New refuses it with an error instead of panicking
// at the first delivery.
func TestNegativeNetDelayRejected(t *testing.T) {
	topo := chainTopo(100)
	setup := Setup{
		Topology: topo,
		Sources:  map[int]SourceFactory{0: NewCountSourceFactory(10)},
		Operators: map[int]OperatorFactory{
			1: NewPassthroughFactory(), 2: NewPassthroughFactory(),
		},
	}
	for _, d := range []sim.Time{-0.05, sim.Time(math.Inf(-1)), sim.Time(math.NaN())} {
		setup.Config = Config{NetDelay: d}
		if _, err := New(setup); err == nil || !strings.Contains(err.Error(), "NetDelay") {
			t.Errorf("NetDelay %v: err = %v, want a NetDelay error", d, err)
		}
	}
	setup.Config = Config{NetDelay: 0.01}
	e, err := New(setup)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(5)
	if e.SinkTupleCount() == 0 {
		t.Fatal("a positive NetDelay delivered nothing")
	}
}

// TestConfigFieldsValidated: every numeric Config field rejects a
// negative value, and every duration and rate rejects NaN, with an
// error naming the field; zero still selects the default. The cases are
// generated from the struct, so a field added later is covered too.
// Without the check these values panic at the first tick, batch or
// restore, or (a NaN CheckpointInterval) silently disable checkpoints.
func TestConfigFieldsValidated(t *testing.T) {
	setup := Setup{
		Topology: chainTopo(100),
		Sources:  map[int]SourceFactory{0: NewCountSourceFactory(10)},
		Operators: map[int]OperatorFactory{
			1: NewPassthroughFactory(), 2: NewPassthroughFactory(),
		},
	}
	if _, err := New(setup); err != nil {
		t.Fatalf("zero Config rejected: %v", err)
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var bad []reflect.Value
		switch f.Type.Kind() {
		case reflect.Float64:
			bad = []reflect.Value{reflect.ValueOf(-1.0), reflect.ValueOf(math.NaN()), reflect.ValueOf(math.Inf(-1))}
		case reflect.Int:
			bad = []reflect.Value{reflect.ValueOf(-1)}
		case reflect.Bool:
			continue
		default:
			t.Fatalf("Config.%s has unhandled kind %v", f.Name, f.Type.Kind())
		}
		for _, v := range bad {
			var cfg Config
			reflect.ValueOf(&cfg).Elem().Field(i).Set(v.Convert(f.Type))
			setup.Config = cfg
			if _, err := New(setup); err == nil || !strings.Contains(err.Error(), "Config."+f.Name+" ") {
				t.Errorf("Config.%s = %v: err = %v, want an error naming the field", f.Name, v, err)
			}
		}
	}
}

func TestWindowOpSnapshotRoundTrip(t *testing.T) {
	op := &WindowCountOp{WindowBatches: 3, Selectivity: 0.5}
	sink := &collectEmitter{}
	for b := 0; b < 5; b++ {
		op.ProcessBatch(b, 0, Batch{Count: 100 * (b + 1)}, sink)
		op.OnBatchEnd(b, sink)
	}
	snap, counted := op.Snapshot(nil)
	// The state is the header alone; the window's tuples are counted.
	if want := 16 + 8*len(op.window); len(snap) != want {
		t.Errorf("state = %d bytes, want %d", len(snap), want)
	}
	if want := 300 + 400 + 500; counted != want {
		t.Errorf("counted = %d, want the window's tuple sum %d", counted, want)
	}
	op2 := &WindowCountOp{WindowBatches: 3, Selectivity: 0.5}
	restored := func(data []byte) {
		t.Helper()
		if err := op2.Restore(data); err != nil {
			t.Fatal(err)
		}
		if op2.seen != op.seen {
			t.Errorf("seen = %d, want %d", op2.seen, op.seen)
		}
		if !slices.Equal(op2.window, op.window) {
			t.Errorf("window = %v, want %v", op2.window, op.window)
		}
	}
	restored(snap)

	// A pre-sized buffer is written in place, with no allocation.
	buf := make([]byte, 0, len(snap))
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = op.Snapshot(buf[:0]) }); allocs != 0 {
		t.Errorf("Snapshot into a pre-sized buffer: %v allocs, want 0", allocs)
	}
	// A dirty reused buffer (the engine recycles each task's previous
	// checkpoint) restores identically.
	dirty := bytes.Repeat([]byte{0xff}, 4*len(snap))
	again, _ := op.Snapshot(dirty[:0])
	if !bytes.Equal(again, snap) {
		t.Errorf("snapshot into a dirty buffer = %x, want %x", again, snap)
	}
	restored(again)

	if err := op2.Restore(nil); err != nil {
		t.Fatal(err)
	}
	if op2.seen != 0 || len(op2.window) != 0 {
		t.Error("Restore(nil) did not reset")
	}
	if err := op2.Restore([]byte{1, 2}); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

type collectEmitter struct {
	tuples []Tuple
	count  int
}

func (c *collectEmitter) Emit(t Tuple)    { c.tuples = append(c.tuples, t) }
func (c *collectEmitter) EmitCount(n int) { c.count += n }

func TestStrategyString(t *testing.T) {
	if StrategyActive.String() != "active" ||
		StrategyCheckpoint.String() != "checkpoint" ||
		StrategySourceReplay.String() != "source-replay" {
		t.Error("Strategy.String misbehaves")
	}
}

// TestStrategies checks the plan → strategy vector mapping: the plan's
// tasks get active replicas, every other task the passive default.
func TestStrategies(t *testing.T) {
	topo := chainTopo(100) // 5 tasks
	active := []topology.TaskID{0, 2, 4}
	for _, passive := range []Strategy{StrategyCheckpoint, StrategySourceReplay} {
		strats := Strategies(topo.NumTasks(), passive, active)
		if len(strats) != 5 {
			t.Fatalf("strategies len = %d", len(strats))
		}
		for i, s := range strats {
			want := passive
			if slices.Contains(active, topology.TaskID(i)) {
				want = StrategyActive
			}
			if s != want {
				t.Errorf("passive %v: task %d strategy %v, want %v", passive, i, s, want)
			}
		}
	}
}
