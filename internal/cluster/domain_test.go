package cluster

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/topology"
)

func TestDomainTree(t *testing.T) {
	c := New(4, 2)
	if c.Domain(RootDomain) == nil || c.Domain(RootDomain).Kind != "cluster" {
		t.Fatal("no root domain")
	}
	zone, err := c.AddDomain(RootDomain, "zone", "z0")
	if err != nil {
		t.Fatal(err)
	}
	rack, err := c.AddDomain(zone, "rack", "r0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddDomain(99, "rack", "orphan"); err == nil {
		t.Error("unknown parent accepted")
	}
	if got := c.Domain(zone).Children(); len(got) != 1 || got[0] != rack {
		t.Errorf("zone children = %v", got)
	}
	if got := c.DomainsOfKind("rack"); len(got) != 1 || got[0] != rack {
		t.Errorf("racks = %v", got)
	}

	if err := c.AttachNode(0, rack); err != nil {
		t.Fatal(err)
	}
	if err := c.AttachNode(1, zone); err != nil {
		t.Fatal(err)
	}
	if err := c.AttachNode(99, rack); err == nil {
		t.Error("attaching unknown node accepted")
	}
	if err := c.AttachNode(0, 99); err == nil {
		t.Error("attaching to unknown domain accepted")
	}
	if got := c.DomainOf(0); got != rack {
		t.Errorf("DomainOf(0) = %d, want rack %d", got, rack)
	}
	if got := c.DomainOf(2); got != RootDomain {
		t.Errorf("unattached node domain = %d, want root", got)
	}
	if got := c.DomainOf(99); got != NoDomain {
		t.Errorf("unknown node domain = %d, want NoDomain", got)
	}
	// Zone subtree holds both the directly attached node and the rack's.
	if got := c.DomainNodes(zone); !reflect.DeepEqual(got, []NodeID{0, 1}) {
		t.Errorf("zone nodes = %v", got)
	}
	// Root covers everything, including never-attached nodes.
	if got := c.DomainNodes(RootDomain); len(got) != 6 {
		t.Errorf("root nodes = %v", got)
	}
	// Reattaching moves the node between domains.
	if err := c.AttachNode(0, zone); err != nil {
		t.Fatal(err)
	}
	if got := c.DomainNodes(rack); len(got) != 0 {
		t.Errorf("rack still owns %v after reattach", got)
	}
}

// TestFailDomain fails a rack and then its zone node by node, as the
// engine injects a domain failure: the rack's primaries fail, the
// zone's standby only with the zone, and the domains survive Reset.
func TestFailDomain(t *testing.T) {
	topo := testTopo(t) // 6 tasks
	c := New(3, 1)
	if err := c.PlaceRoundRobin(topo); err != nil {
		t.Fatal(err)
	}
	zone, _ := c.AddDomain(RootDomain, "zone", "z0")
	rack, _ := c.AddDomain(zone, "rack", "r0")
	for _, n := range []NodeID{0, 1} {
		if err := c.AttachNode(n, rack); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AttachNode(3, zone); err != nil { // the standby node
		t.Fatal(err)
	}

	failDomain := func(dom DomainID) []topology.TaskID {
		var out []topology.TaskID
		for _, n := range c.DomainNodes(dom) {
			out = append(out, c.FailNode(n)...)
		}
		return out
	}
	if failed := failDomain(rack); len(failed) != 4 {
		t.Fatalf("rack failure hit %v, want the 4 tasks of nodes 0-1", failed)
	}
	if c.Node(3).Failed {
		t.Error("zone-level standby failed by rack failure")
	}
	// Failing the enclosing zone takes the standby down and returns no
	// new primary tasks beyond those already failed.
	if again := failDomain(zone); len(again) != 0 {
		t.Errorf("double domain failure returned %v", again)
	}
	if !c.Node(3).Failed {
		t.Error("zone failure missed its standby node")
	}
	if failDomain(99) != nil {
		t.Error("unknown domain failure returned tasks")
	}

	c.Reset()
	for _, n := range c.Nodes() {
		if n.Failed {
			t.Errorf("node %d still failed after Reset", n.ID)
		}
	}
	// Domains survive Reset; a second campaign can re-fail them.
	if got := failDomain(rack); len(got) != 4 {
		t.Errorf("re-failing rack after Reset hit %v", got)
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

func TestBuildDomains(t *testing.T) {
	c := New(8, 4)
	racks, err := c.BuildDomains(Layout{Zones: 2, RacksPerZone: 2, SpreadStandby: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(racks) != 4 {
		t.Fatalf("racks = %v", racks)
	}
	if got := len(c.DomainsOfKind("zone")); got != 2 {
		t.Fatalf("%d zones", got)
	}
	// Every node is attached to some rack; processing and standby both.
	total := 0
	for _, r := range racks {
		nodes := c.DomainNodes(r)
		if len(nodes) != 3 { // 2 processing + 1 standby per rack
			t.Errorf("rack %d holds %v", r, nodes)
		}
		total += len(nodes)
	}
	if total != 12 {
		t.Fatalf("racks cover %d of 12 nodes", total)
	}

	// Dedicated standby zone when not spreading.
	c2 := New(4, 2)
	if _, err := c2.BuildDomains(Layout{Zones: 1, RacksPerZone: 2}); err != nil {
		t.Fatal(err)
	}
	standbyRacks := 0
	for _, d := range c2.Domains() {
		if d.Kind == "rack" && d.Name == "rack-standby" {
			standbyRacks++
			if got := c2.DomainNodes(d.ID); len(got) != 2 {
				t.Errorf("standby rack holds %v", got)
			}
		}
	}
	if standbyRacks != 1 {
		t.Fatalf("%d standby racks", standbyRacks)
	}

	if _, err := c.BuildDomains(Layout{}); err == nil {
		t.Error("invalid layout accepted")
	}
}

// TestDegenerateEquivalence pins single nodes and the set of all
// processing nodes as degenerate cases of the domain model: a
// single-node domain holds just that node, and the racks of a layout
// that keeps standby apart hold exactly the processing nodes.
func TestDegenerateEquivalence(t *testing.T) {
	topo := testTopo(t)

	a := New(3, 1)
	if err := a.PlaceRoundRobin(topo); err != nil {
		t.Fatal(err)
	}
	rack, _ := a.AddDomain(RootDomain, "rack", "r0")
	if err := a.AttachNode(1, rack); err != nil {
		t.Fatal(err)
	}
	if got := a.DomainNodes(rack); !reflect.DeepEqual(got, []NodeID{1}) {
		t.Errorf("single-node domain holds %v, want [1]", got)
	}

	c := New(4, 2)
	if err := c.PlaceRoundRobin(topo); err != nil {
		t.Fatal(err)
	}
	racks, err := c.BuildDomains(Layout{Zones: 1, RacksPerZone: 2}) // standby kept separate
	if err != nil {
		t.Fatal(err)
	}
	var all, want []NodeID
	for _, r := range racks {
		all = append(all, c.DomainNodes(r)...)
	}
	for _, n := range c.ProcessingNodes() {
		want = append(want, n.ID)
	}
	slices.Sort(all)
	if !reflect.DeepEqual(all, want) {
		t.Errorf("the racks hold %v, want the processing nodes %v", all, want)
	}
}
