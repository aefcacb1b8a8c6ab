package cluster

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/topology"
)

// This file implements replica placement. Active replication only helps
// against correlated failures if a task's replica lives in a different
// failure domain than its primary (§V-A of Su & Zhou, ICDE 2016): a
// burst that takes out a whole rack or zone must not be able to kill
// both copies. PlacementAntiAffinity enforces exactly that; the legacy
// round-robin placement, which scatters replicas with no regard for
// domains, is kept as an explicit policy for comparison sweeps.

// PlacementPolicy selects how active replicas are placed on the standby
// nodes.
type PlacementPolicy int

const (
	// PlacementAntiAffinity places each replica on a standby node
	// outside its primary's rack (hard constraint), preferring a
	// different zone (soft constraint) and spreading replicas evenly
	// over the eligible standby nodes. It is the zero value — and
	// therefore the default policy of engine.Setup.
	PlacementAntiAffinity PlacementPolicy = iota
	// PlacementRoundRobin is the legacy placement: replicas cycle over
	// the standby nodes in ascending task order, ignoring failure
	// domains. A replica can land in its primary's rack, so a single
	// domain burst may kill both copies.
	PlacementRoundRobin
)

// PlacementPolicies lists every placement policy.
var PlacementPolicies = []PlacementPolicy{PlacementAntiAffinity, PlacementRoundRobin}

// String names the policy as used by the cmd flags.
func (p PlacementPolicy) String() string {
	switch p {
	case PlacementAntiAffinity:
		return "anti-affinity"
	case PlacementRoundRobin:
		return "round-robin"
	default:
		return fmt.Sprintf("PlacementPolicy(%d)", int(p))
	}
}

// ParsePlacementPolicy resolves a policy name (as printed by String).
func ParsePlacementPolicy(s string) (PlacementPolicy, error) {
	for _, p := range PlacementPolicies {
		if p.String() == strings.TrimSpace(s) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown placement policy %q (known: anti-affinity, round-robin)", s)
}

// ErrAntiAffinity is wrapped by PlaceReplicas when the standby pool
// cannot host a replica outside its primary's rack.
var ErrAntiAffinity = errors.New("no standby node satisfies rack anti-affinity")

// PlaceReplicas assigns a standby node to the active replica of every
// given task under the policy. Placement is deterministic: it depends
// only on the cluster layout, the current primary placement, any
// replicas already placed, and the task set.
func (c *Cluster) PlaceReplicas(tasks []topology.TaskID, policy PlacementPolicy) error {
	standby := c.StandbyNodes()
	if len(standby) == 0 && len(tasks) > 0 {
		return fmt.Errorf("cluster: no standby nodes for %d replicas", len(tasks))
	}
	sorted := slices.Clone(tasks)
	slices.Sort(sorted)
	switch policy {
	case PlacementRoundRobin:
		for i, id := range sorted {
			place(c.replicaOn, c.replicasOn, id, standby[i%len(standby)].ID)
		}
		return nil
	case PlacementAntiAffinity:
		return c.placeReplicasAntiAffinity(sorted, standby)
	default:
		return fmt.Errorf("cluster: unknown placement policy %d", int(policy))
	}
}

// placeReplicasAntiAffinity implements the domain-aware policy. For
// each task (ascending order) it scores every standby node by
// (same-zone-as-primary, replicas-already-hosted, node ID) and picks
// the lexicographic minimum among the nodes outside the primary's
// rack. On a cluster without a layout every standby is eligible and
// the policy degrades to pure load spreading.
func (c *Cluster) placeReplicasAntiAffinity(sorted []topology.TaskID, standby []*Node) error {
	// Current replica load per standby node, so that incremental
	// placements (plan adaptation) keep spreading.
	load := make(map[NodeID]int, len(standby))
	for _, n := range c.replicaOn {
		load[n]++
	}
	for _, id := range sorted {
		primary, placed := c.placement[id]
		var pr *Rack
		if placed {
			pr = c.RackOf(primary)
		}
		best := NodeID(-1)
		bestZone, bestLoad := 0, 0
		for _, n := range standby {
			sameZone := 0
			if pr != nil {
				r := c.RackOf(n.ID)
				if r == pr {
					continue // hard constraint: never share the primary's rack
				}
				if r.Zone == pr.Zone {
					sameZone = 1
				}
			}
			l := load[n.ID]
			if best < 0 || sameZone < bestZone ||
				(sameZone == bestZone && l < bestLoad) {
				best, bestZone, bestLoad = n.ID, sameZone, l
			}
		}
		if best < 0 {
			return fmt.Errorf("cluster: replica for task %d: %w (primary on node %d in rack %d, all %d standby nodes share that rack)",
				id, ErrAntiAffinity, primary, pr.ID, len(standby))
		}
		place(c.replicaOn, c.replicasOn, id, best)
		load[best]++
	}
	return nil
}
