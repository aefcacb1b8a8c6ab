package cluster

import (
	"testing"

	"repro/internal/topology"
)

func testTopo(t *testing.T) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder()
	src := b.AddSource("src", 4, 100)
	op := b.AddOperator("op", 2, topology.Independent, 1)
	b.Connect(src, op, topology.Merge)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestNodeKinds(t *testing.T) {
	c := New(3, 2)
	if len(c.Nodes()) != 5 {
		t.Fatalf("nodes = %d", len(c.Nodes()))
	}
	if len(c.ProcessingNodes()) != 3 || len(c.StandbyNodes()) != 2 {
		t.Fatal("node kinds wrong")
	}
	if c.Node(3) == nil || !c.Node(3).Standby {
		t.Error("node 3 should be standby")
	}
	if c.Node(99) != nil || c.Node(-1) != nil {
		t.Error("out-of-range node lookup should return nil")
	}
}

func TestPlacementRoundRobin(t *testing.T) {
	topo := testTopo(t)
	c := New(3, 1)
	if err := c.PlaceRoundRobin(topo); err != nil {
		t.Fatal(err)
	}
	counts := map[NodeID]int{}
	for _, task := range topo.Tasks {
		counts[c.NodeOf(task.ID)]++
	}
	for n, cnt := range counts {
		if cnt != 2 {
			t.Errorf("node %d hosts %d tasks, want 2", n, cnt)
		}
	}
	if err := New(0, 1).PlaceRoundRobin(topo); err == nil {
		t.Error("placement with no processing nodes accepted")
	}
}

func TestFailNode(t *testing.T) {
	topo := testTopo(t)
	c := New(3, 1)
	if err := c.PlaceRoundRobin(topo); err != nil {
		t.Fatal(err)
	}
	failed := c.FailNode(0)
	if len(failed) != 2 {
		t.Fatalf("failed tasks = %v, want 2 on node 0", failed)
	}
	for i := 1; i < len(failed); i++ {
		if failed[i-1] >= failed[i] {
			t.Error("failed tasks not sorted")
		}
	}
	if again := c.FailNode(0); again != nil {
		t.Errorf("double failure returned %v", again)
	}
	if !c.Node(0).Failed || c.Node(1).Failed {
		t.Errorf("failed flags %v and %v, want node 0 failed only", c.Node(0).Failed, c.Node(1).Failed)
	}
	c.Reset()
	if c.Node(0).Failed {
		t.Error("node 0 still failed after Reset")
	}
}

func TestReplicaPlacement(t *testing.T) {
	c := New(2, 3)
	tasks := []topology.TaskID{5, 1, 3}
	if err := c.PlaceReplicas(tasks, PlacementRoundRobin); err != nil {
		t.Fatal(err)
	}
	seen := map[NodeID]int{}
	for _, id := range tasks {
		n, ok := c.ReplicaNodeOf(id)
		if !ok {
			t.Fatalf("no replica node for %d", id)
		}
		if !c.Node(n).Standby {
			t.Errorf("replica of %d on non-standby node %d", id, n)
		}
		seen[n]++
	}
	if len(seen) != 3 {
		t.Errorf("replicas on %d nodes, want spread over 3", len(seen))
	}
	if _, ok := c.ReplicaNodeOf(99); ok {
		t.Error("unknown task has replica node")
	}
	if err := New(2, 0).PlaceReplicas(tasks, PlacementRoundRobin); err == nil {
		t.Error("replica placement without standby nodes accepted")
	}
}
