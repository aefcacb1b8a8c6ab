package engine

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// TestReplicaSurvivesDomainBurst is the engine-level regression test
// for the placement bug: under the default anti-affinity placement a
// whole-rack burst that kills a task's primary must leave its replica
// alive (it lives outside the rack), so recovery is a fast replica
// takeover; under the legacy round-robin placement the same burst kills
// the co-located replica too and recovery falls back to the slower
// checkpoint replay.
func TestReplicaSurvivesDomainBurst(t *testing.T) {
	run := func(placement cluster.PlacementPolicy) (recovered bool, latency sim.Time, replicaRack, primaryRack int) {
		topo := chainTopo(1000)
		clus := cluster.New(5, 5)
		if err := clus.BuildDomains(cluster.Layout{Zones: 2, RacksPerZone: 2, SpreadStandby: true}); err != nil {
			t.Fatal(err)
		}
		if err := clus.PlaceRoundRobin(topo); err != nil {
			t.Fatal(err)
		}
		strategies := allStrategies(topo.NumTasks(), StrategyCheckpoint)
		strategies[4] = StrategyActive // the B task
		e, err := New(Setup{
			Topology: topo,
			Cluster:  clus,
			Config:   Config{CheckpointInterval: 5},
			Sources:  map[int]SourceFactory{0: NewCountSourceFactory(1000)},
			Operators: map[int]OperatorFactory{
				1: NewWindowCountFactory(10, 0.5),
				2: NewWindowCountFactory(10, 0.5),
			},
			Strategies: strategies,
			Placement:  placement,
		})
		if err != nil {
			t.Fatal(err)
		}
		rack := clus.RackOf(clus.NodeOf(4))
		standby, ok := clus.ReplicaNodeOf(4)
		if !ok {
			t.Fatal("no replica placed for task 4")
		}
		primaryRack, replicaRack = rack.ID, clus.RackOf(standby).ID
		e.ScheduleNodeFailures(rack.Nodes, 15.2)
		e.Run(120)
		for _, st := range e.RecoveryStats() {
			if st.Task == 4 {
				return st.Recovered, st.RecoveredAt - st.DetectedAt, replicaRack, primaryRack
			}
		}
		t.Fatal("no recovery stat for task 4")
		return
	}

	recAA, latAA, repRack, primRack := run(cluster.PlacementAntiAffinity)
	if repRack == primRack {
		t.Fatalf("anti-affinity placed the replica in the primary's rack %d", primRack)
	}
	if !recAA {
		t.Fatal("task 4 not recovered under anti-affinity placement")
	}
	recRR, latRR, repRackRR, primRackRR := run(cluster.PlacementRoundRobin)
	if repRackRR != primRackRR {
		t.Skipf("layout no longer co-locates under round-robin (replica rack %d, primary rack %d)", repRackRR, primRackRR)
	}
	if !recRR {
		t.Fatal("task 4 not recovered under round-robin placement")
	}
	if latAA >= latRR {
		t.Errorf("replica takeover (%v) not faster than checkpoint fallback (%v)", latAA, latRR)
	}
}

// TestNewSurfacesAntiAffinityError: when the standby pool cannot host a
// replica outside the primary's rack, engine construction must fail
// with the placement error instead of silently co-locating.
func TestNewSurfacesAntiAffinityError(t *testing.T) {
	topo := chainTopo(1000)
	clus := cluster.New(5, 1)
	// One rack holds every node, the standby included.
	if err := clus.BuildDomains(cluster.Layout{Zones: 1, RacksPerZone: 1, SpreadStandby: true}); err != nil {
		t.Fatal(err)
	}
	if err := clus.PlaceRoundRobin(topo); err != nil {
		t.Fatal(err)
	}
	strategies := allStrategies(topo.NumTasks(), StrategyCheckpoint)
	strategies[4] = StrategyActive
	_, err := New(Setup{
		Topology: topo,
		Cluster:  clus,
		Sources:  map[int]SourceFactory{0: NewCountSourceFactory(1000)},
		Operators: map[int]OperatorFactory{
			1: NewWindowCountFactory(10, 0.5),
			2: NewWindowCountFactory(10, 0.5),
		},
		Strategies: strategies,
	})
	if !errors.Is(err, cluster.ErrAntiAffinity) {
		t.Fatalf("engine.New = %v, want the anti-affinity placement error", err)
	}
}
