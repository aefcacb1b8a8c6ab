package queries

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// runQuery builds an engine for a query bundle and runs it with the
// given failed tasks unrecoverable from t=2.1s, tentative outputs on.
func runQuery(t *testing.T, topo *topology.Topology, sources map[int]engine.SourceFactory,
	operators map[int]engine.OperatorFactory, failed []topology.TaskID, until sim.Time) *engine.Engine {
	t.Helper()
	clus := cluster.New(topo.NumTasks(), 4)
	if err := clus.PlaceRoundRobin(topo); err != nil {
		t.Fatal(err)
	}
	strategies := make([]engine.Strategy, topo.NumTasks())
	for _, id := range failed {
		strategies[id] = engine.StrategyNone
	}
	e, err := engine.New(engine.Setup{
		Topology:   topo,
		Cluster:    clus,
		Config:     engine.Config{TentativeOutputs: true, HeartbeatInterval: 1, ProcRate: 1e7},
		Sources:    sources,
		Operators:  operators,
		Strategies: strategies,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) > 0 {
		e.ScheduleTaskFailures(failed, 2.1)
	}
	e.Run(until)
	return e
}

func TestQ1BaselineFindsTrueTopK(t *testing.T) {
	q, err := NewQ1(Q1Params{Seed: 42, K: 50, RatePerTask: 2000, WindowBatches: 20})
	if err != nil {
		t.Fatal(err)
	}
	e := runQuery(t, q.Topo, q.Sources(), q.Operators(), nil, 40)
	got, batch := LastBatchKeys(e.SinkRecords(), -1)
	if batch < 30 {
		t.Fatalf("sink only reached batch %d", batch)
	}
	if len(got) != 50 {
		t.Fatalf("top-k emitted %d keys, want 50", len(got))
	}
	truth := map[string]bool{}
	for _, k := range q.Model.TrueTopK(50) {
		truth[k] = true
	}
	if acc := SetAccuracy(got, truth); acc < 0.8 {
		t.Errorf("baseline top-k accuracy vs Zipf ground truth = %v, want >= 0.8", acc)
	}
}

func TestQ1FailureDegradesAccuracy(t *testing.T) {
	build := func() (*Q1, *engine.Engine, []topology.TaskID) {
		q, err := NewQ1(Q1Params{Seed: 7, K: 50, RatePerTask: 2000, WindowBatches: 20})
		if err != nil {
			t.Fatal(err)
		}
		// Fail half of the O1 tasks (operator index 1).
		var failed []topology.TaskID
		o1 := q.Topo.TasksOf(1)
		for i := 0; i < len(o1); i += 2 {
			failed = append(failed, o1[i])
		}
		return q, nil, failed
	}
	q, _, failed := build()
	base := runQuery(t, q.Topo, q.Sources(), q.Operators(), nil, 40)
	baseKeys, _ := LastBatchKeys(base.SinkRecords(), -1)

	q2, err := NewQ1(Q1Params{Seed: 7, K: 50, RatePerTask: 2000, WindowBatches: 20})
	if err != nil {
		t.Fatal(err)
	}
	tent := runQuery(t, q2.Topo, q2.Sources(), q2.Operators(), failed, 40)
	tentKeys, batch := LastBatchKeys(tent.SinkRecords(), -1)
	if batch < 30 {
		t.Fatalf("tentative run stalled at batch %d; tentative outputs not flowing", batch)
	}
	acc := SetAccuracy(tentKeys, baseKeys)
	if acc <= 0.2 || acc >= 1 {
		t.Errorf("tentative accuracy = %v, want degraded but nonzero", acc)
	}
}

func TestQ2BaselineDetectsJams(t *testing.T) {
	q, err := NewQ2(Q2Params{Seed: 42, Users: 10000, Segments: 100, LocRate: 2000, WindowBatches: 10})
	if err != nil {
		t.Fatal(err)
	}
	e := runQuery(t, q.Topo, q.Sources(), q.Operators(), nil, 60)
	got := AllKeys(e.SinkRecords())
	truth := map[string]bool{}
	for _, id := range q.Model.TrueJams(0, 50) {
		truth[id] = true
	}
	if len(truth) == 0 {
		t.Fatal("no ground-truth jams")
	}
	if acc := SetAccuracy(got, truth); acc < 0.9 {
		t.Errorf("baseline jam accuracy = %v, want >= 0.9 (got %d of %d)", acc, len(got), len(truth))
	}
	// High precision: nearly every reported id is a true jam. (A non-jam
	// incident on a segment still slowed by an earlier jam is a
	// semantically correct detection, so allow a small margin.)
	truthAll := map[string]bool{}
	for _, id := range q.Model.TrueJams(0, 60) {
		truthAll[id] = true
	}
	false_ := 0
	for id := range got {
		if !truthAll[id] {
			false_++
		}
	}
	if len(got) > 0 && float64(false_)/float64(len(got)) > 0.15 {
		t.Errorf("%d of %d reported jams are false", false_, len(got))
	}
}

func TestQ2JoinInputLossKillsDetection(t *testing.T) {
	// Killing all the incident-side tasks (O2) starves the join's
	// correlated input: no jams can be detected even though speeds
	// still flow — the behaviour that makes IC mispredict join queries.
	q, err := NewQ2(Q2Params{Seed: 9, Users: 10000, Segments: 100, LocRate: 2000, WindowBatches: 10})
	if err != nil {
		t.Fatal(err)
	}
	failed := append([]topology.TaskID(nil), q.Topo.TasksOf(3)...) // O2-dedup tasks
	e := runQuery(t, q.Topo, q.Sources(), q.Operators(), failed, 60)
	got := AllKeys(e.SinkRecords())
	// Jams reported before the failure at t=2.1 are fine; none after.
	truthBefore := map[string]bool{}
	for _, id := range q.Model.TrueJams(0, 1) {
		truthBefore[id] = true
	}
	for id := range got {
		if !truthBefore[id] {
			t.Errorf("jam %s detected despite losing the incident stream", id)
		}
	}
}

func TestQ2PartialFailureDegradesGracefully(t *testing.T) {
	q, err := NewQ2(Q2Params{Seed: 21, Users: 10000, Segments: 100, LocRate: 2000, WindowBatches: 10})
	if err != nil {
		t.Fatal(err)
	}
	base := runQuery(t, q.Topo, q.Sources(), q.Operators(), nil, 60)
	baseKeys := AllKeys(base.SinkRecords())

	q2, err := NewQ2(Q2Params{Seed: 21, Users: 10000, Segments: 100, LocRate: 2000, WindowBatches: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Fail half the join tasks.
	var failed []topology.TaskID
	o3 := q2.Topo.TasksOf(4)
	for i := 0; i < len(o3); i += 2 {
		failed = append(failed, o3[i])
	}
	tent := runQuery(t, q2.Topo, q2.Sources(), q2.Operators(), failed, 60)
	tentKeys := AllKeys(tent.SinkRecords())
	acc := SetAccuracy(tentKeys, baseKeys)
	if acc <= 0 || acc >= 1 {
		t.Errorf("accuracy with half the join tasks = %v, want in (0,1)", acc)
	}
}

func TestFig6Construction(t *testing.T) {
	f, err := NewFig6(Fig6Params{RatePerTask: 1000, WindowBatches: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Topo.NumTasks(); got != 31 {
		t.Errorf("tasks = %d, want 31 (16 sources + 15 synthetic)", got)
	}
	if len(f.SyntheticNodes) != 15 || len(f.SyntheticTasks) != 15 {
		t.Errorf("synthetic layout = %d nodes / %d tasks, want 15/15",
			len(f.SyntheticNodes), len(f.SyntheticTasks))
	}
	// All synthetic tasks on distinct nodes 4..18.
	seen := map[cluster.NodeID]bool{}
	for i, id := range f.SyntheticTasks {
		n := f.Clus.NodeOf(id)
		if n != f.SyntheticNodes[i] {
			t.Errorf("task %d on node %d, layout says %d", id, n, f.SyntheticNodes[i])
		}
		if seen[n] {
			t.Errorf("node %d hosts two synthetic tasks", n)
		}
		seen[n] = true
	}
}

func TestFig6CorrelatedRecovery(t *testing.T) {
	f, err := NewFig6(Fig6Params{RatePerTask: 1000, WindowBatches: 10})
	if err != nil {
		t.Fatal(err)
	}
	setup := f.Setup(engine.Config{CheckpointInterval: 5}, nil)
	e, err := engine.New(setup)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range f.SyntheticNodes {
		e.ScheduleNodeFailure(n, 30.2)
	}
	e.Run(200)
	stats := e.RecoveryStats()
	if len(stats) != 15 {
		t.Fatalf("recovery stats for %d tasks, want 15", len(stats))
	}
	for _, st := range stats {
		if !st.Recovered {
			t.Errorf("task %d (%s) not recovered", st.Task, st.Strategy)
		}
	}
}

func TestTopKOpWindowSlides(t *testing.T) {
	op := &topKOp{k: 2, window: 2}
	c := &capture{}
	// batch 0: a dominates
	op.ProcessBatch(0, 0, engine.Batch{Count: 2, Tuples: []engine.Tuple{
		{Key: "a", Value: 10}, {Key: "b", Value: 1}}}, c)
	op.OnBatchEnd(0, c)
	if c.keys()[0] != "a" {
		t.Fatalf("batch 0 top = %v", c.keys())
	}
	c.reset()
	// batches 1 and 2: b dominates; a's count must expire after the
	// window slides past batch 0.
	for b := 1; b <= 2; b++ {
		op.ProcessBatch(b, 0, engine.Batch{Count: 1, Tuples: []engine.Tuple{{Key: "b", Value: 5}}}, c)
		op.OnBatchEnd(b, c)
		c.reset()
	}
	op.ProcessBatch(3, 0, engine.Batch{Count: 1, Tuples: []engine.Tuple{{Key: "b", Value: 5}}}, c)
	op.OnBatchEnd(3, c)
	ks := c.keys()
	if len(ks) == 0 || ks[0] != "b" {
		t.Errorf("after sliding, top = %v, want b first", ks)
	}
	for _, k := range ks {
		if k == "a" {
			t.Error("expired key a still in top-k")
		}
	}
}

func TestTopKSnapshotRoundTrip(t *testing.T) {
	op := &topKOp{k: 3, window: 5}
	c := &capture{}
	for b := 0; b < 4; b++ {
		op.ProcessBatch(b, 0, engine.Batch{Count: 1, Tuples: []engine.Tuple{
			{Key: workload.ObjectName(b), Value: b + 1}}}, c)
		op.OnBatchEnd(b, c)
	}
	// Restore once from a fresh buffer and once from a snapshot written
	// into a dirty reused buffer, as the engine's recycled checkpoint is.
	snap, counted := op.Snapshot(nil)
	if counted != 0 {
		t.Errorf("counted = %d, want 0 (materialised state)", counted)
	}
	again, _ := op.Snapshot(dirtyBuf(4 * len(snap)))
	var restored []*topKOp
	for _, data := range [][]byte{snap, again} {
		op2 := &topKOp{k: 3, window: 5}
		if err := op2.Restore(data); err != nil {
			t.Fatal(err)
		}
		restored = append(restored, op2)
	}
	c1 := &capture{}
	op.ProcessBatch(4, 0, engine.Batch{}, c1)
	op.OnBatchEnd(4, c1)
	k1 := c1.keys()
	for _, op2 := range restored {
		c2 := &capture{}
		op2.ProcessBatch(4, 0, engine.Batch{}, c2)
		op2.OnBatchEnd(4, c2)
		if k2 := c2.keys(); !slices.Equal(k1, k2) {
			t.Errorf("restored op emits %q, original %q", k2, k1)
		}
	}
	if err := restored[0].Restore(nil); err != nil {
		t.Fatal(err)
	}
}

// dirtyBuf returns an empty slice whose n bytes of capacity hold stale
// non-zero content, like a recycled checkpoint buffer.
func dirtyBuf(n int) []byte { return bytes.Repeat([]byte{0xff}, n)[:0] }

func TestJoinOpSnapshotRoundTrip(t *testing.T) {
	op := &joinOp{window: 5, threshold: 30}
	c := &capture{}
	op.ProcessBatch(0, 0, engine.Batch{Count: 1, Tuples: []engine.Tuple{
		{Key: "seg-1", Value: "inc-1"}}}, c)
	op.OnBatchEnd(0, c)
	snap, counted := op.Snapshot(nil)
	if counted != 0 {
		t.Errorf("counted = %d, want 0 (materialised state)", counted)
	}
	again, _ := op.Snapshot(dirtyBuf(4 * len(snap)))
	// Now a slow speed arrives: the original and both restored operators
	// (from a fresh and from a dirty reused buffer) must emit the jam.
	slow := engine.Batch{Count: 1, Tuples: []engine.Tuple{{Key: "seg-1", Value: speedObs{Speed: 5}}}}
	ops := []*joinOp{op}
	for _, data := range [][]byte{snap, again} {
		op2 := &joinOp{window: 5, threshold: 30}
		if err := op2.Restore(data); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op2)
	}
	for i, o := range ops {
		c := &capture{}
		o.ProcessBatch(1, 0, slow, c)
		o.OnBatchEnd(1, c)
		if len(c.tuples) != 1 || c.tuples[0].Key != "inc-1" {
			t.Errorf("op %d emitted %v, want one jam inc-1", i, c.tuples)
		}
	}
}

type capture struct {
	tuples []engine.Tuple
	count  int
}

func (c *capture) Emit(t engine.Tuple) { c.tuples = append(c.tuples, t) }
func (c *capture) EmitCount(n int)     { c.count += n }
func (c *capture) keys() []string {
	var out []string
	for _, t := range c.tuples {
		out = append(out, t.Key)
	}
	return out
}
func (c *capture) reset() { c.tuples = nil; c.count = 0 }
