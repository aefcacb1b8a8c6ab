package cluster

import "fmt"

// This file models failure domains. Real correlated failures strike
// shared infrastructure — a rack loses its top-of-rack switch, a power
// feed drops a whole zone — taking down every node behind the faulty
// component (§I of Su & Zhou, ICDE 2016). BuildDomains lays the nodes
// out in exactly that shape: zones of racks, each node in one rack.
// The engine fails a rack by failing every node of Rack.Nodes at once.
// Standby nodes in the rack fail too, and with them the active replicas
// they host; checkpoints are modelled as living in a replicated store
// that survives domain failures, as in the paper's standby storage.

// Rack is one rack of the layout: its ID, the ID of its zone and its
// nodes, in ascending order. Zones and racks share one numbering from
// 1, in creation order, each zone just before its racks.
type Rack struct {
	ID    int
	Zone  int
	Nodes []NodeID
}

// Layout describes a regular two-level failure-domain hierarchy:
// Zones power/switch zones, each with RacksPerZone racks. Processing
// nodes are attached to racks round-robin; standby nodes are spread
// over the same racks (SpreadStandby) or kept in a dedicated standby
// zone, so a domain failure can also take out replicas — the paper's
// worst case for active replication.
type Layout struct {
	Zones         int
	RacksPerZone  int
	SpreadStandby bool
}

// DefaultLayout is a 2-zone, 2-racks-per-zone layout with standby
// nodes spread across the racks.
func DefaultLayout() Layout { return Layout{Zones: 2, RacksPerZone: 2, SpreadStandby: true} }

// BuildDomains lays the cluster out as l describes, replacing any
// earlier layout: the zones and their racks in order, then, when
// standby nodes are not spread and there are some, a standby zone
// with one rack holding them all.
func (c *Cluster) BuildDomains(l Layout) error {
	if l.Zones < 1 || l.RacksPerZone < 1 {
		return fmt.Errorf("cluster: invalid layout %+v", l)
	}
	c.racks, c.zones, c.rackOf = nil, nil, make([]int, len(c.nodes))
	addZone := func(racks int) {
		id := len(c.zones) + len(c.racks) + 1
		c.zones = append(c.zones, id)
		for r := 1; r <= racks; r++ {
			c.racks = append(c.racks, Rack{ID: id + r, Zone: id})
		}
	}
	for range l.Zones {
		addZone(l.RacksPerZone)
	}
	n := len(c.racks)
	standby := c.StandbyNodes()
	if !l.SpreadStandby && len(standby) > 0 {
		addZone(1)
	}
	for i, nd := range c.ProcessingNodes() {
		c.attach(nd.ID, i%n)
	}
	for i, nd := range standby {
		if l.SpreadStandby {
			c.attach(nd.ID, i%n)
		} else {
			c.attach(nd.ID, n)
		}
	}
	return nil
}

// attach puts a node into the rack at index r. Processing nodes are
// attached before standby nodes and each in ascending order, so a
// rack's node list stays sorted.
func (c *Cluster) attach(id NodeID, r int) {
	c.rackOf[id] = r
	c.racks[r].Nodes = append(c.racks[r].Nodes, id)
}

// Racks returns every rack in creation order, the standby rack last.
// The returned slice must not be modified.
func (c *Cluster) Racks() []Rack { return c.racks }

// Zones returns every zone's ID in creation order.
func (c *Cluster) Zones() []int { return c.zones }

// RackOf returns the rack holding the node, or nil for an unknown node
// or a cluster that BuildDomains has not laid out.
func (c *Cluster) RackOf(id NodeID) *Rack {
	if int(id) < 0 || int(id) >= len(c.rackOf) {
		return nil
	}
	return &c.racks[c.rackOf[id]]
}
