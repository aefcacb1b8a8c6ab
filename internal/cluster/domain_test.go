package cluster

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/topology"
)

// TestBuildDomains pins the layout's numbering and node lists: zones
// and racks share one count from 1, each zone just before its racks;
// processing nodes, then standby nodes, go to the racks round-robin,
// or the standby nodes to a standby zone of one rack after the others.
// Campaign scenario labels name racks by these IDs.
func TestBuildDomains(t *testing.T) {
	for _, c := range []struct {
		name                string
		processing, standby int
		layout              Layout
		zones               []int
		racks               []Rack
	}{
		{"default", 8, 4, DefaultLayout(), []int{1, 4}, []Rack{
			{2, 1, []NodeID{0, 4, 8}},
			{3, 1, []NodeID{1, 5, 9}},
			{5, 4, []NodeID{2, 6, 10}},
			{6, 4, []NodeID{3, 7, 11}},
		}},
		{"standby zone", 10, 5, Layout{Zones: 4, RacksPerZone: 2}, []int{1, 4, 7, 10, 13}, []Rack{
			{2, 1, []NodeID{0, 8}},
			{3, 1, []NodeID{1, 9}},
			{5, 4, []NodeID{2}},
			{6, 4, []NodeID{3}},
			{8, 7, []NodeID{4}},
			{9, 7, []NodeID{5}},
			{11, 10, []NodeID{6}},
			{12, 10, []NodeID{7}},
			{14, 13, []NodeID{10, 11, 12, 13, 14}},
		}},
		{"more racks than nodes", 2, 0, Layout{Zones: 1, RacksPerZone: 3}, []int{1}, []Rack{
			{2, 1, []NodeID{0}},
			{3, 1, []NodeID{1}},
			{4, 1, nil},
		}},
	} {
		cl := New(c.processing, c.standby)
		if err := cl.BuildDomains(c.layout); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cl.Zones(), c.zones) {
			t.Errorf("%s: zones %v, want %v", c.name, cl.Zones(), c.zones)
		}
		if !reflect.DeepEqual(cl.Racks(), c.racks) {
			t.Errorf("%s: racks %v, want %v", c.name, cl.Racks(), c.racks)
		}
		for _, r := range cl.Racks() {
			for _, n := range r.Nodes {
				if got := cl.RackOf(n); got == nil || got.ID != r.ID {
					t.Errorf("%s: RackOf(%d) = %v, want rack %d", c.name, n, got, r.ID)
				}
			}
		}
	}

	c := New(4, 2)
	if c.RackOf(0) != nil {
		t.Error("a node has a rack before BuildDomains")
	}
	if err := c.BuildDomains(Layout{Zones: 2, RacksPerZone: 1}); err != nil {
		t.Fatal(err)
	}
	// A second layout replaces the first.
	if err := c.BuildDomains(Layout{Zones: 1, RacksPerZone: 2, SpreadStandby: true}); err != nil {
		t.Fatal(err)
	}
	want := []Rack{{2, 1, []NodeID{0, 2, 4}}, {3, 1, []NodeID{1, 3, 5}}}
	if !reflect.DeepEqual(c.Racks(), want) || !reflect.DeepEqual(c.Zones(), []int{1}) {
		t.Errorf("after a second BuildDomains: zones %v, racks %v, want [1] and %v", c.Zones(), c.Racks(), want)
	}
	if c.RackOf(99) != nil || c.RackOf(-1) != nil {
		t.Error("an unknown node has a rack")
	}
	if err := c.BuildDomains(Layout{}); err == nil {
		t.Error("invalid layout accepted")
	}
}

// TestFailRack fails a rack node by node, as the engine injects a
// domain failure: the rack's primaries fail, the other racks' nodes
// survive, and the layout survives Reset.
func TestFailRack(t *testing.T) {
	topo := testTopo(t) // 6 tasks
	c := New(4, 2)
	if err := c.PlaceRoundRobin(topo); err != nil {
		t.Fatal(err)
	}
	if err := c.BuildDomains(Layout{Zones: 1, RacksPerZone: 2, SpreadStandby: true}); err != nil {
		t.Fatal(err)
	}
	rack := c.Racks()[0] // nodes 0, 2 and standby 4
	failRack := func() []topology.TaskID {
		var out []topology.TaskID
		for _, n := range rack.Nodes {
			out = append(out, c.FailNode(n)...)
		}
		return out
	}
	if failed := failRack(); !reflect.DeepEqual(failed, []topology.TaskID{0, 4, 2}) {
		t.Fatalf("rack failure hit %v, want the tasks of nodes 0 and 2", failed)
	}
	for _, n := range c.Nodes() {
		if in := c.RackOf(n.ID).ID == rack.ID; n.Failed != in {
			t.Errorf("node %d failed %v, in the failed rack %v", n.ID, n.Failed, in)
		}
	}
	if again := failRack(); len(again) != 0 {
		t.Errorf("double rack failure returned %v", again)
	}
	c.Reset()
	if got := failRack(); len(got) != 3 {
		t.Errorf("re-failing the rack after Reset hit %v", got)
	}
}

// TestProcessingRacks pins the set of all processing nodes as a
// degenerate case of the layout: with standby nodes kept apart, the
// racks before the standby rack hold exactly the processing nodes.
func TestProcessingRacks(t *testing.T) {
	c := New(4, 2)
	if err := c.BuildDomains(Layout{Zones: 1, RacksPerZone: 2}); err != nil {
		t.Fatal(err)
	}
	racks := c.Racks()
	var all, want []NodeID
	for _, r := range racks[:len(racks)-1] {
		all = append(all, r.Nodes...)
	}
	for _, n := range c.ProcessingNodes() {
		want = append(want, n.ID)
	}
	slices.Sort(all)
	if !reflect.DeepEqual(all, want) {
		t.Errorf("the racks hold %v, want the processing nodes %v", all, want)
	}
}

// TestFailNodeEdgeCases covers double-fail, unknown node, standby
// nodes and Reset.
func TestFailNodeEdgeCases(t *testing.T) {
	topo := testTopo(t)
	c := New(3, 2)
	if err := c.PlaceRoundRobin(topo); err != nil {
		t.Fatal(err)
	}
	if got := c.FailNode(99); got != nil {
		t.Errorf("failing unknown node returned %v", got)
	}
	if got := c.FailNode(-1); got != nil {
		t.Errorf("failing negative node returned %v", got)
	}
	// Standby nodes host no primaries: failing one returns no tasks but
	// marks it failed.
	if got := c.FailNode(3); got != nil {
		t.Errorf("failing standby returned tasks %v", got)
	}
	if !c.Node(3).Failed {
		t.Error("standby not marked failed")
	}
	first := c.FailNode(0)
	if len(first) == 0 {
		t.Fatal("failing node 0 hit no tasks")
	}
	if again := c.FailNode(0); again != nil {
		t.Errorf("double fail returned %v", again)
	}
	var down []NodeID
	for _, n := range c.Nodes() {
		if n.Failed {
			down = append(down, n.ID)
		}
	}
	if !reflect.DeepEqual(down, []NodeID{0, 3}) {
		t.Errorf("failed nodes %v, want [0 3]", down)
	}
	c.Reset()
	for _, n := range c.Nodes() {
		if n.Failed {
			t.Errorf("node %d still failed after Reset", n.ID)
		}
	}
	// After Reset the same node fails afresh and reports its tasks.
	if got := c.FailNode(0); !reflect.DeepEqual(got, first) {
		t.Errorf("re-fail after Reset = %v, want %v", got, first)
	}
}
