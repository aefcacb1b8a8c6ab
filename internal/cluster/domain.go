package cluster

import (
	"fmt"
	"sort"
)

// This file models hierarchical failure domains. Real correlated
// failures strike shared infrastructure — a rack loses its top-of-rack
// switch, a power feed drops a whole zone — taking down every node
// beneath the faulty component (§I of Su & Zhou, ICDE 2016). The
// cluster therefore carries a tree of failure domains: the root is the
// cluster itself, inner domains model zones (power/switch) and racks,
// and nodes attach to the domain whose failure takes them down.
// A single node and the set of all processing nodes are the degenerate
// cases: a single-node domain and the union of all processing racks.
// The engine fails a domain by failing every node of DomainNodes at
// once. Standby nodes in the domain fail too, and with them the active
// replicas they host; checkpoints are modelled as living in a
// replicated store that survives domain failures, as in the paper's
// standby storage.

// DomainID identifies a failure domain within a cluster. The root
// domain always has ID 0.
type DomainID int

// RootDomain is the implicit whole-cluster domain.
const RootDomain DomainID = 0

// NoDomain is returned for lookups that have no answer.
const NoDomain DomainID = -1

// Domain is one failure domain: a component whose failure takes down
// every node attached to it or to any of its descendants.
type Domain struct {
	ID     DomainID
	Name   string
	Kind   string // e.g. "cluster", "zone", "rack"
	Parent DomainID

	children []DomainID
	nodes    []NodeID // directly attached nodes
}

// Children returns the IDs of the direct sub-domains.
func (d *Domain) Children() []DomainID { return d.children }

// ensureDomains lazily creates the root domain so that clusters built
// before the domain model keep working unchanged.
func (c *Cluster) ensureDomains() {
	if len(c.domains) == 0 {
		c.domains = append(c.domains, &Domain{ID: RootDomain, Name: "cluster", Kind: "cluster", Parent: NoDomain})
	}
}

// AddDomain creates a sub-domain of parent and returns its ID.
func (c *Cluster) AddDomain(parent DomainID, kind, name string) (DomainID, error) {
	c.ensureDomains()
	p := c.Domain(parent)
	if p == nil {
		return NoDomain, fmt.Errorf("cluster: unknown parent domain %d", parent)
	}
	id := DomainID(len(c.domains))
	c.domains = append(c.domains, &Domain{ID: id, Name: name, Kind: kind, Parent: parent})
	p.children = append(p.children, id)
	return id, nil
}

// Domain returns the domain with the given ID, or nil.
func (c *Cluster) Domain(id DomainID) *Domain {
	c.ensureDomains()
	if int(id) < 0 || int(id) >= len(c.domains) {
		return nil
	}
	return c.domains[id]
}

// Domains returns all domains in creation order (root first). The
// returned slice must not be modified.
func (c *Cluster) Domains() []*Domain {
	c.ensureDomains()
	return c.domains
}

// DomainsOfKind returns the IDs of the domains with the given kind, in
// creation order.
func (c *Cluster) DomainsOfKind(kind string) []DomainID {
	var out []DomainID
	for _, d := range c.Domains() {
		if d.Kind == kind {
			out = append(out, d.ID)
		}
	}
	return out
}

// AttachNode attaches a node to a domain, detaching it from its
// previous domain. Nodes not explicitly attached belong to the root.
func (c *Cluster) AttachNode(id NodeID, dom DomainID) error {
	if c.Node(id) == nil {
		return fmt.Errorf("cluster: unknown node %d", id)
	}
	d := c.Domain(dom)
	if d == nil {
		return fmt.Errorf("cluster: unknown domain %d", dom)
	}
	if c.nodeDomain == nil {
		c.nodeDomain = make(map[NodeID]DomainID)
	}
	if prev, ok := c.nodeDomain[id]; ok {
		pd := c.domains[prev]
		for i, n := range pd.nodes {
			if n == id {
				pd.nodes = append(pd.nodes[:i], pd.nodes[i+1:]...)
				break
			}
		}
	}
	c.nodeDomain[id] = dom
	d.nodes = append(d.nodes, id)
	return nil
}

// DomainOf returns the domain a node is attached to (RootDomain when
// never attached), or NoDomain for an unknown node.
func (c *Cluster) DomainOf(id NodeID) DomainID {
	if c.Node(id) == nil {
		return NoDomain
	}
	if dom, ok := c.nodeDomain[id]; ok {
		return dom
	}
	return RootDomain
}

// DomainNodes returns every node attached to the domain or any of its
// descendants, in ascending node order. The root domain additionally
// owns every node never explicitly attached.
func (c *Cluster) DomainNodes(dom DomainID) []NodeID {
	d := c.Domain(dom)
	if d == nil {
		return nil
	}
	var out []NodeID
	stack := []DomainID{dom}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cd := c.domains[cur]
		out = append(out, cd.nodes...)
		stack = append(stack, cd.children...)
	}
	if dom == RootDomain {
		for _, n := range c.nodes {
			if _, ok := c.nodeDomain[n.ID]; !ok {
				out = append(out, n.ID)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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

// BuildDomains constructs the Layout's domain tree and attaches every
// node. It returns the rack domain IDs in creation order. Calling it
// replaces any previous attachment of the nodes.
func (c *Cluster) BuildDomains(l Layout) ([]DomainID, error) {
	if l.Zones < 1 || l.RacksPerZone < 1 {
		return nil, fmt.Errorf("cluster: invalid layout %+v", l)
	}
	var racks []DomainID
	for z := 0; z < l.Zones; z++ {
		zone, err := c.AddDomain(RootDomain, "zone", fmt.Sprintf("zone-%d", z))
		if err != nil {
			return nil, err
		}
		for r := 0; r < l.RacksPerZone; r++ {
			rack, err := c.AddDomain(zone, "rack", fmt.Sprintf("rack-%d-%d", z, r))
			if err != nil {
				return nil, err
			}
			racks = append(racks, rack)
		}
	}
	proc := c.ProcessingNodes()
	for i, n := range proc {
		if err := c.AttachNode(n.ID, racks[i%len(racks)]); err != nil {
			return nil, err
		}
	}
	standby := c.StandbyNodes()
	if l.SpreadStandby {
		for i, n := range standby {
			if err := c.AttachNode(n.ID, racks[i%len(racks)]); err != nil {
				return nil, err
			}
		}
	} else if len(standby) > 0 {
		zone, err := c.AddDomain(RootDomain, "zone", "zone-standby")
		if err != nil {
			return nil, err
		}
		rack, err := c.AddDomain(zone, "rack", "rack-standby")
		if err != nil {
			return nil, err
		}
		for _, n := range standby {
			if err := c.AttachNode(n.ID, rack); err != nil {
				return nil, err
			}
		}
	}
	return racks, nil
}
