// Package cluster models the simulated processing cluster of the
// reproduction: processing nodes hosting primary tasks, standby nodes
// hosting checkpoints and active replicas (§V-A of Su & Zhou, ICDE
// 2016), task placement, and failure bookkeeping for single-node and
// correlated failures.
package cluster

import (
	"fmt"
	"slices"

	"repro/internal/topology"
)

// NodeID identifies a node.
type NodeID int

// Node is one machine of the simulated cluster.
type Node struct {
	ID      NodeID
	Standby bool
	Failed  bool
}

// Cluster is a set of nodes with a task placement. Primary tasks live on
// processing nodes; checkpoints and active replicas live on standby
// nodes (§V-A).
type Cluster struct {
	nodes     []*Node
	placement map[topology.TaskID]NodeID // primary task -> processing node
	replicaOn map[topology.TaskID]NodeID // replicated task -> standby node
	// tasksOn and replicasOn are the reverse indexes of placement and
	// replicaOn (node -> tasks, ascending), kept in sync by place so
	// that failure injection never rescans the placement maps.
	tasksOn    map[NodeID][]topology.TaskID
	replicasOn map[NodeID][]topology.TaskID

	// The failure-domain layout (see domain.go): the racks in creation
	// order, the zone IDs, and each node's index into racks.
	racks  []Rack
	zones  []int
	rackOf []int
}

// New builds a cluster with the given number of processing and standby
// nodes.
func New(processing, standby int) *Cluster {
	c := &Cluster{
		placement:  make(map[topology.TaskID]NodeID),
		replicaOn:  make(map[topology.TaskID]NodeID),
		tasksOn:    make(map[NodeID][]topology.TaskID),
		replicasOn: make(map[NodeID][]topology.TaskID),
	}
	for i := 0; i < processing; i++ {
		c.nodes = append(c.nodes, &Node{ID: NodeID(i)})
	}
	for i := 0; i < standby; i++ {
		c.nodes = append(c.nodes, &Node{ID: NodeID(processing + i), Standby: true})
	}
	return c
}

// Nodes returns all nodes. The returned slice must not be modified.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// ProcessingNodes returns the non-standby nodes.
func (c *Cluster) ProcessingNodes() []*Node {
	var out []*Node
	for _, n := range c.nodes {
		if !n.Standby {
			out = append(out, n)
		}
	}
	return out
}

// StandbyNodes returns the standby nodes.
func (c *Cluster) StandbyNodes() []*Node {
	var out []*Node
	for _, n := range c.nodes {
		if n.Standby {
			out = append(out, n)
		}
	}
	return out
}

// Node returns the node with the given ID.
func (c *Cluster) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(c.nodes) {
		return nil
	}
	return c.nodes[id]
}

// PlaceRoundRobin distributes the topology's tasks over the processing
// nodes in round-robin order, the default placement of the experiments
// ("the primary replicas of the tasks are evenly distributed among the
// nodes").
func (c *Cluster) PlaceRoundRobin(t *topology.Topology) error {
	proc := c.ProcessingNodes()
	if len(proc) == 0 {
		return fmt.Errorf("cluster: no processing nodes")
	}
	for i, task := range t.Tasks {
		c.Place(task.ID, proc[i%len(proc)].ID)
	}
	return nil
}

// Place assigns a primary task to a node, moving it off its previous
// node if it was already placed.
func (c *Cluster) Place(id topology.TaskID, node NodeID) {
	place(c.placement, c.tasksOn, id, node)
}

// place points task id at node in the placement map at and keeps its
// reverse index on in sync.
func place(at map[topology.TaskID]NodeID, on map[NodeID][]topology.TaskID, id topology.TaskID, node NodeID) {
	if prev, ok := at[id]; ok {
		if prev == node {
			return
		}
		i, _ := slices.BinarySearch(on[prev], id)
		on[prev] = slices.Delete(on[prev], i, i+1)
	}
	at[id] = node
	i, _ := slices.BinarySearch(on[node], id)
	on[node] = slices.Insert(on[node], i, id)
}

// NodeOf returns the node hosting the primary of the task.
func (c *Cluster) NodeOf(id topology.TaskID) NodeID { return c.placement[id] }

// TasksOn returns the primary tasks placed on the node, in ascending
// task order. The returned slice must not be modified.
func (c *Cluster) TasksOn(id NodeID) []topology.TaskID { return c.tasksOn[id] }

// ReplicaNodeOf returns the standby node hosting the task's active
// replica, if any.
func (c *Cluster) ReplicaNodeOf(id topology.TaskID) (NodeID, bool) {
	n, ok := c.replicaOn[id]
	return n, ok
}

// ReplicasOn returns the tasks whose active replica the node hosts, in
// ascending task order. The returned slice must not be modified.
func (c *Cluster) ReplicasOn(id NodeID) []topology.TaskID { return c.replicasOn[id] }

// FailNode marks a node failed and returns the primary tasks placed on
// it, in ascending task order, or nil when the node is unknown or
// already failed. The returned slice is TasksOn's and must not be
// modified.
func (c *Cluster) FailNode(id NodeID) []topology.TaskID {
	n := c.Node(id)
	if n == nil || n.Failed {
		return nil
	}
	n.Failed = true
	return c.tasksOn[id]
}

// Reset clears every node's failed flag, returning the cluster to its
// pre-failure state. Placement, replicas and the layout are kept:
// Reset models repairing the hardware, not rebuilding the cluster.
func (c *Cluster) Reset() {
	for _, n := range c.nodes {
		n.Failed = false
	}
}
