package engine

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/topology"
)

// domainChainEngine builds the chain topology on a domain-structured
// cluster: tasks round-robin over 5 processing nodes, replicas on 5
// standby nodes, all spread over 2 zones x 2 racks.
func domainChainEngine(t *testing.T, cfg Config, strategies []Strategy) (*Engine, []cluster.Rack) {
	t.Helper()
	topo := chainTopo(1000)
	clus := cluster.New(5, 5)
	if err := clus.BuildDomains(cluster.Layout{Zones: 2, RacksPerZone: 2, SpreadStandby: true}); err != nil {
		t.Fatal(err)
	}
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
	return e, clus.Racks()
}

// TestScheduleDomainFailure fails one rack (its Nodes, as one burst) and checks that exactly the primaries of the rack's
// processing nodes fail and recover.
func TestScheduleDomainFailure(t *testing.T) {
	cfg := Config{CheckpointInterval: 5}
	e, racks := domainChainEngine(t, cfg, nil)
	rack := racks[0]
	var want []topology.TaskID
	for _, n := range rack.Nodes {
		if nd := e.clus.Node(n); nd != nil && !nd.Standby {
			for _, task := range e.topo.Tasks {
				if e.clus.NodeOf(task.ID) == n {
					want = append(want, task.ID)
				}
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("rack hosts no primaries; layout changed?")
	}
	e.ScheduleNodeFailures(rack.Nodes, 15.2)
	e.Run(120)
	stats := e.RecoveryStats()
	if len(stats) != len(want) {
		t.Fatalf("%d recovery stats, want %d (tasks %v)", len(stats), len(want), want)
	}
	for _, st := range stats {
		if !st.Recovered {
			t.Errorf("task %d not recovered", st.Task)
		}
	}
}

// TestReplicaLostWithStandbyNode is the correlated worst case the
// domain model exposes: the burst takes out a primary AND the standby
// hosting its active replica, forcing the checkpoint fallback. Recovery
// must still succeed, and must be slower than a replica take-over.
func TestReplicaLostWithStandbyNode(t *testing.T) {
	cfg := Config{CheckpointInterval: 5}

	run := func(withStandby bool) sim.Time {
		topo := chainTopo(1000)
		// Replicate the B task (task 4) actively, checkpoint the rest.
		strategies := allStrategies(topo.NumTasks(), StrategyCheckpoint)
		strategies[4] = StrategyActive
		e := newChainEngine(t, cfg, strategies)
		primary := e.clus.NodeOf(4)
		nodes := []cluster.NodeID{primary}
		if withStandby {
			standby, ok := e.clus.ReplicaNodeOf(4)
			if !ok {
				t.Fatal("no replica placed for task 4")
			}
			nodes = append(nodes, standby)
		}
		e.ScheduleNodeFailures(nodes, 15.2)
		e.Run(120)
		for _, st := range e.RecoveryStats() {
			if st.Task != 4 {
				continue
			}
			if !st.Recovered {
				t.Fatalf("task 4 not recovered (withStandby=%v)", withStandby)
			}
			return st.RecoveredAt - st.DetectedAt
		}
		t.Fatalf("no recovery stat for task 4 (withStandby=%v)", withStandby)
		return 0
	}

	replicaTakeover := run(false)
	checkpointFallback := run(true)
	if checkpointFallback <= replicaTakeover {
		t.Errorf("checkpoint fallback (%v) should be slower than replica take-over (%v)",
			checkpointFallback, replicaTakeover)
	}
}

// TestSourceReplicaServesCheckpointReplay is the regression test for
// the correlated burst that takes out an actively replicated SOURCE
// task together with its checkpoint-protected downstream task. The
// promoted source replica holds no generated batches, so it must
// rewind and regenerate the range the downstream checkpoint replays;
// before that fix the downstream task waited forever for source
// batches nobody could resend.
func TestSourceReplicaServesCheckpointReplay(t *testing.T) {
	topo := chainTopo(1000)
	strategies := allStrategies(topo.NumTasks(), StrategyCheckpoint)
	strategies[0] = StrategyActive // src[0]
	e := newChainEngine(t, Config{CheckpointInterval: 5}, strategies)
	// src[0] and its direct downstream A[0] (one-to-one) fail together.
	burst := []cluster.NodeID{e.clus.NodeOf(0), e.clus.NodeOf(2)}
	e.ScheduleNodeFailures(burst, 25.2)
	e.Run(120)
	stats := e.RecoveryStats()
	if len(stats) != 2 {
		t.Fatalf("%d recovery stats, want 2", len(stats))
	}
	for _, st := range stats {
		if !st.Recovered {
			t.Errorf("task %d (%v) not recovered by 120s", st.Task, st.Strategy)
		}
	}
}

// TestSourceReplicaRegeneratesForUncheckpointedDownstream pins the
// rewind bound of the promoted source replica: a downstream task that
// never checkpointed before the burst cold-restarts from batch 0, so
// the source must regenerate from 0 even though its other downstream
// has a checkpoint bound. The burst fires before the later golden-ratio
// checkpoint offset, so exactly one of the two downstream tasks has a
// checkpoint.
func TestSourceReplicaRegeneratesForUncheckpointedDownstream(t *testing.T) {
	b := topology.NewBuilder()
	src := b.AddSource("src", 1, 1000)
	a := b.AddOperator("A", 2, topology.Independent, 0.5)
	bb := b.AddOperator("B", 1, topology.Independent, 0.5)
	b.Connect(src, a, topology.Split)
	b.Connect(a, bb, topology.Merge)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	clus := cluster.New(4, 4)
	if err := clus.PlaceRoundRobin(topo); err != nil {
		t.Fatal(err)
	}
	strategies := allStrategies(topo.NumTasks(), StrategyCheckpoint)
	strategies[0] = StrategyActive // the source
	e, err := New(Setup{
		Topology: topo,
		Cluster:  clus,
		Config:   Config{CheckpointInterval: 15},
		Sources:  map[int]SourceFactory{0: NewCountSourceFactory(1000)},
		Operators: map[int]OperatorFactory{
			1: NewWindowCountFactory(10, 0.5),
			2: NewWindowCountFactory(10, 0.5),
		},
		Strategies: strategies,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Golden-ratio offsets: task 1 checkpoints at ~3.5s, task 2 at
	// ~12.8s. Failing at 8.2s catches task 2 with no checkpoint at all.
	burst := []cluster.NodeID{e.clus.NodeOf(0), e.clus.NodeOf(2)}
	e.ScheduleNodeFailures(burst, 8.2)
	e.Run(150)
	for _, st := range e.RecoveryStats() {
		if !st.Recovered {
			t.Errorf("task %d (%v) not recovered by 150s", st.Task, st.Strategy)
		}
	}
}

// TestPromotedReplicaDiesWithStandbyNode covers the multi-wave case:
// wave 1 fails a primary and its replica is promoted (now running on a
// standby node); wave 2 fails that standby node. The promoted
// replica must fail with its host — the placement map does not
// know it — and recover again via checkpoint fallback.
func TestPromotedReplicaDiesWithStandbyNode(t *testing.T) {
	topo := chainTopo(1000)
	strategies := allStrategies(topo.NumTasks(), StrategyCheckpoint)
	strategies[4] = StrategyActive // the B task
	e := newChainEngine(t, Config{CheckpointInterval: 5}, strategies)
	standby, ok := e.clus.ReplicaNodeOf(4)
	if !ok {
		t.Fatal("no replica placed for task 4")
	}
	// Wave 1 at 20.2: primary dies, detection at 25, promotion ~25.2.
	e.ScheduleNodeFailures([]cluster.NodeID{e.clus.NodeOf(4)}, 20.2)
	// Wave 2 at 32.2: the standby hosting the promoted task dies.
	e.ScheduleNodeFailures([]cluster.NodeID{standby}, 32.2)
	e.Run(150)
	var stats []RecoveryStat
	for _, st := range e.RecoveryStats() {
		if st.Task == 4 {
			stats = append(stats, st)
		}
	}
	if len(stats) != 2 {
		t.Fatalf("%d failures recorded for task 4, want 2 (second wave missed the promoted host?)", len(stats))
	}
	for i, st := range stats {
		if !st.Recovered {
			t.Errorf("failure %d of task 4 not recovered", i)
		}
	}
}

// TestStandbyDiesDuringActivation covers a standby failing inside the
// activation window of the replica it hosts: the primary fails, the
// master detects it and starts the take-over, and the standby dies
// before the replicaActivateCost has passed. The dead replica must not
// be promoted: the task falls back to checkpoint recovery, recovers,
// and is live at the horizon.
func TestStandbyDiesDuringActivation(t *testing.T) {
	topo := chainTopo(1000)
	strategies := allStrategies(topo.NumTasks(), StrategyCheckpoint)
	strategies[4] = StrategyActive // the B task
	cfg := Config{CheckpointInterval: 5}
	e := newChainEngine(t, cfg, strategies)
	standby, ok := e.clus.ReplicaNodeOf(4)
	if !ok {
		t.Fatal("no replica placed for task 4")
	}
	// The primary dies at 15.2 and the heartbeat at 20 detects it; the
	// standby dies inside [20, 20.2), the default activation window.
	const horizon = 120
	e.ScheduleNodeFailures([]cluster.NodeID{e.clus.NodeOf(4)}, 15.2)
	e.ScheduleNodeFailures([]cluster.NodeID{standby}, 20.1)
	e.Run(horizon)
	var stats []RecoveryStat
	for _, st := range e.RecoveryStats() {
		if st.Task == 4 {
			stats = append(stats, st)
		}
	}
	if len(stats) != 1 || !stats[0].Recovered || stats[0].DetectedAt != 20 {
		t.Fatalf("task 4 recovery stats %+v, want one failure detected at 20 and recovered", stats)
	}
	rt := e.tasks[4]
	if rt.failed || rt.promoted || rt != e.prim[4] {
		t.Errorf("task 4 runs on the replica that died (failed=%v promoted=%v), want its primary restored from a checkpoint", rt.failed, rt.promoted)
	}
	// Restoring costs at least restoreFixed after the activation window.
	if lat, min := stats[0].Latency(), replicaActivateCost+restoreFixed; lat < min {
		t.Errorf("task 4 recovered %v after detection, faster than activation plus restore (%v)", lat, min)
	}
	if got, want := e.TaskProgress(4), horizon-2; got < want {
		t.Errorf("task 4 progress %d at the horizon, want at least %d", got, want)
	}
}
