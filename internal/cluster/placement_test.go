package cluster

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/topology"
)

// laidOut builds a cluster of processing and standby nodes laid out
// as l.
func laidOut(t *testing.T, processing, standby int, l Layout) *Cluster {
	t.Helper()
	c := New(processing, standby)
	if err := c.BuildDomains(l); err != nil {
		t.Fatal(err)
	}
	return c
}

// twoZones lays out two zones of one rack each: processing node 0 in
// rack A, node 1 in rack B, and the standby nodes alternately in A and
// B, from node 2.
var twoZones = Layout{Zones: 2, RacksPerZone: 1, SpreadStandby: true}

// TestAntiAffinityRejectsSharedRack is the regression test for the
// headline bug: when the only free standby shares the primary's rack,
// placement must fail with the anti-affinity error instead of silently
// co-locating replica and primary in one failure domain.
func TestAntiAffinityRejectsSharedRack(t *testing.T) {
	c := laidOut(t, 2, 1, twoZones) // the single standby shares rack A
	c.Place(7, 0)                   // primary on node 0 in rack A

	err := c.PlaceReplicas([]topology.TaskID{7}, PlacementAntiAffinity)
	if !errors.Is(err, ErrAntiAffinity) {
		t.Fatalf("co-located standby accepted: err=%v", err)
	}
	if _, ok := c.ReplicaNodeOf(7); ok {
		t.Error("replica placed despite anti-affinity error")
	}

	// The legacy policy happily co-locates — that is the bug this
	// subsystem fixes, kept only as an explicit comparison baseline.
	if err := c.PlaceReplicas([]topology.TaskID{7}, PlacementRoundRobin); err != nil {
		t.Fatalf("round-robin: %v", err)
	}
	if n, _ := c.ReplicaNodeOf(7); c.RackOf(n) != c.RackOf(0) {
		t.Error("round-robin placement expected to co-locate in this layout")
	}
}

// TestAntiAffinityPicksOtherDomain: with one standby in the primary's
// rack and one outside, the replica must land outside.
func TestAntiAffinityPicksOtherDomain(t *testing.T) {
	c := laidOut(t, 2, 2, twoZones) // standby 2 in rack A, 3 in rack B
	c.Place(7, 0)                   // primary in rack A

	if err := c.PlaceReplicas([]topology.TaskID{7}, PlacementAntiAffinity); err != nil {
		t.Fatal(err)
	}
	n, ok := c.ReplicaNodeOf(7)
	if !ok || n != 3 {
		t.Fatalf("replica on node %v (rack %v), want the rack-B standby 3", n, c.RackOf(n))
	}
}

// TestAntiAffinityPrefersOtherZone: two eligible standbys outside the
// primary's rack, one in the primary's zone and one in another zone —
// the other zone wins even when it means a higher node ID.
func TestAntiAffinityPrefersOtherZone(t *testing.T) {
	// Racks A1, A2 in zone A and B1, B2 in zone B hold processing
	// nodes 0-3 and then standby nodes 4 (A1), 5 (A2) and 6 (B1).
	c := laidOut(t, 4, 3, DefaultLayout())
	c.Place(3, 0) // primary in rack A1

	if err := c.PlaceReplicas([]topology.TaskID{3}, PlacementAntiAffinity); err != nil {
		t.Fatal(err)
	}
	if n, _ := c.ReplicaNodeOf(3); n != 6 {
		t.Errorf("replica on node %d, want the other-zone standby 6", n)
	}
}

// TestAntiAffinitySpreadsLoad: several replicas with equally eligible
// standbys must spread instead of piling on the lowest node ID, and the
// placement must be deterministic across identically built clusters.
func TestAntiAffinitySpreadsLoad(t *testing.T) {
	build := func() *Cluster {
		// Processing nodes 0 and 1 in one rack, standby nodes 2-4 in
		// the standby rack.
		c := laidOut(t, 2, 3, Layout{Zones: 1, RacksPerZone: 1})
		c.Place(0, 0)
		c.Place(1, 1)
		c.Place(2, 0)
		return c
	}
	c := build()
	tasks := []topology.TaskID{0, 1, 2}
	if err := c.PlaceReplicas(tasks, PlacementAntiAffinity); err != nil {
		t.Fatal(err)
	}
	seen := map[NodeID]int{}
	for _, id := range tasks {
		n, ok := c.ReplicaNodeOf(id)
		if !ok {
			t.Fatalf("no replica for %d", id)
		}
		seen[n]++
	}
	if len(seen) != 3 {
		t.Errorf("3 replicas on %d standby nodes, want spread over 3", len(seen))
	}

	d := build()
	if err := d.PlaceReplicas(tasks, PlacementAntiAffinity); err != nil {
		t.Fatal(err)
	}
	for _, id := range tasks {
		a, _ := c.ReplicaNodeOf(id)
		b, _ := d.ReplicaNodeOf(id)
		if a != b {
			t.Errorf("task %d placed on %d vs %d across identical clusters", id, a, b)
		}
	}
}

// TestAntiAffinityWithoutDomains: on a cluster without a layout the
// policy degrades to load spreading and never errors.
func TestAntiAffinityWithoutDomains(t *testing.T) {
	c := New(2, 2)
	c.Place(0, 0)
	c.Place(1, 1)
	if err := c.PlaceReplicas([]topology.TaskID{0, 1}, PlacementAntiAffinity); err != nil {
		t.Fatal(err)
	}
	a, _ := c.ReplicaNodeOf(0)
	b, _ := c.ReplicaNodeOf(1)
	if a == b {
		t.Errorf("both replicas on node %d, want spread", a)
	}
}

func TestParsePlacementPolicy(t *testing.T) {
	for _, p := range PlacementPolicies {
		got, err := ParsePlacementPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePlacementPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePlacementPolicy("feng-shui"); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := New(1, 1).PlaceReplicas([]topology.TaskID{0}, PlacementPolicy(42)); err == nil {
		t.Error("unknown policy value accepted by PlaceReplicas")
	}
}

// TestReversePlacementIndex pins the node→tasks index that FailNode and
// the scenario sampler read: it must track placements, re-placements
// and stay sorted.
func TestReversePlacementIndex(t *testing.T) {
	c := New(2, 0)
	c.Place(3, 0)
	c.Place(1, 0)
	c.Place(2, 1)
	if got := c.TasksOn(0); !reflect.DeepEqual(got, []topology.TaskID{1, 3}) {
		t.Fatalf("TasksOn(0) = %v, want [1 3]", got)
	}
	c.Place(1, 1) // move task 1 across nodes
	if got := c.TasksOn(0); !reflect.DeepEqual(got, []topology.TaskID{3}) {
		t.Fatalf("after move, TasksOn(0) = %v, want [3]", got)
	}
	if got := c.TasksOn(1); !reflect.DeepEqual(got, []topology.TaskID{1, 2}) {
		t.Fatalf("after move, TasksOn(1) = %v, want [1 2]", got)
	}
	if got := c.FailNode(1); !reflect.DeepEqual(got, []topology.TaskID{1, 2}) {
		t.Fatalf("FailNode(1) = %v, want [1 2]", got)
	}
	// Failing an already-failed node reports nothing, but the index
	// keeps the placement (Reset models repair, not rebuilding).
	if got := c.FailNode(1); got != nil {
		t.Fatalf("second FailNode(1) = %v, want nil", got)
	}
	c.Reset()
	if got := c.FailNode(1); !reflect.DeepEqual(got, []topology.TaskID{1, 2}) {
		t.Fatalf("after Reset, FailNode(1) = %v, want [1 2]", got)
	}
}

// TestReplicaHostIndex pins the node→replicas index that failure
// injection reads: it tracks replica placements and re-placements and
// stays sorted.
func TestReplicaHostIndex(t *testing.T) {
	c := New(1, 2)
	if err := c.PlaceReplicas([]topology.TaskID{4, 1, 3}, PlacementRoundRobin); err != nil {
		t.Fatal(err)
	}
	if got := c.ReplicasOn(1); !reflect.DeepEqual(got, []topology.TaskID{1, 4}) {
		t.Fatalf("ReplicasOn(1) = %v, want [1 4]", got)
	}
	if got := c.ReplicasOn(2); !reflect.DeepEqual(got, []topology.TaskID{3}) {
		t.Fatalf("ReplicasOn(2) = %v, want [3]", got)
	}
	// Placing task 1's replica again moves it to node 2, the standby
	// with the fewest replicas.
	if err := c.PlaceReplicas([]topology.TaskID{1}, PlacementAntiAffinity); err != nil {
		t.Fatal(err)
	}
	if got := c.ReplicasOn(1); !reflect.DeepEqual(got, []topology.TaskID{4}) {
		t.Errorf("after the move, ReplicasOn(1) = %v, want [4]", got)
	}
	if got := c.ReplicasOn(2); !reflect.DeepEqual(got, []topology.TaskID{1, 3}) {
		t.Errorf("after the move, ReplicasOn(2) = %v, want [1 3]", got)
	}
	if got := c.ReplicasOn(0); got != nil {
		t.Errorf("processing node hosts replicas %v", got)
	}
}
