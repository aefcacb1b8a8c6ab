// Package topology models the query topologies of a massively parallel
// stream processing engine (MPSPE) as described in Su & Zhou, "Tolerating
// Correlated Failures in Massively Parallel Stream Processing Engines"
// (ICDE 2016), §II.
//
// A query plan consists of operators, each parallelised into a number of
// tasks. Data flows between the tasks of neighbouring operators along
// key-partitioned substreams. The task-level graph is a DAG. Four
// partitioning situations between neighbouring operators are modelled:
// one-to-one, split, merge and full.
package topology

import (
	"fmt"
	"sort"
)

// Partitioning describes how the output stream of an upstream operator is
// partitioned among the tasks of a downstream operator (§II-A).
type Partitioning int

const (
	// OneToOne: each upstream task sends to exactly one downstream task
	// and each downstream task receives from exactly one upstream task.
	// Requires equal parallelism.
	OneToOne Partitioning = iota
	// Split: each upstream task sends to several downstream tasks, each
	// downstream task receives from a single upstream task. Requires the
	// downstream parallelism to be >= the upstream parallelism.
	Split
	// Merge: each upstream task sends to a single downstream task, each
	// downstream task receives from several upstream tasks. Requires the
	// upstream parallelism to be >= the downstream parallelism.
	Merge
	// Full: each upstream task sends to all downstream tasks.
	Full
)

// String returns the paper's name for the partitioning kind.
func (p Partitioning) String() string {
	switch p {
	case OneToOne:
		return "one-to-one"
	case Split:
		return "split"
	case Merge:
		return "merge"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Partitioning(%d)", int(p))
	}
}

// InputKind classifies an operator by the correlation of its input
// streams (§III-A1). The distinction drives the information-loss model:
// a correlated-input operator (e.g. a join) computes over the effective
// Cartesian product of its input streams, an independent-input operator
// over their union.
type InputKind int

const (
	// Independent input: the operator treats its input streams as a
	// union; losing part of one input stream does not invalidate tuples
	// of the others.
	Independent InputKind = iota
	// Correlated input: the operator joins its input streams; losing
	// part of one input stream makes the matching parts of the other
	// streams useless.
	Correlated
)

// String returns a short name for the input kind.
func (k InputKind) String() string {
	if k == Correlated {
		return "correlated"
	}
	return "independent"
}

// TaskID identifies a task globally within a topology. IDs are dense,
// starting at 0, assigned operator by operator in insertion order.
type TaskID int

// Task is a single parallel instance of an operator assigned to one
// processing node.
type Task struct {
	ID     TaskID
	Op     int     // index of the owning operator in Topology.Ops
	Index  int     // index of this task within its operator
	Weight float64 // relative share of the operator's workload routed to this task
}

// Operator is one logical query operator, parallelised into Parallelism
// tasks that all conduct the same computation.
type Operator struct {
	Name        string
	Kind        InputKind
	Parallelism int
	// Selectivity is the ratio of output rate to total input rate of a
	// task of this operator. Sources ignore it.
	Selectivity float64
	// SourceRate is the per-task output rate in tuples per second; only
	// meaningful for source operators (operators with no inputs).
	SourceRate float64
	// Weights optionally skews the share of upstream output routed to
	// each task of this operator. len(Weights) must equal Parallelism
	// when non-nil; nil means uniform.
	Weights []float64
}

// Edge connects two operators at the operator level.
type Edge struct {
	From, To int // operator indices
	Part     Partitioning
}

// Substream is the flow from one task to one downstream task, carrying
// Rate tuples per second under failure-free operation.
type Substream struct {
	From, To TaskID
	Rate     float64
}

// InputStream groups the substreams a task receives from the tasks of a
// single upstream neighbouring operator (§II-A: "the input substreams
// received from the tasks belonging to the same upstream neighbouring
// operator constitute an input stream").
type InputStream struct {
	FromOp int
	Subs   []Substream
}

// Rate returns the total rate of the input stream, i.e. the sum of its
// substream rates.
func (s InputStream) Rate() float64 {
	var r float64
	for _, sub := range s.Subs {
		r += sub.Rate
	}
	return r
}

// Topology is an immutable, validated task-level DAG together with the
// failure-free stream rates, produced by a Builder.
type Topology struct {
	Ops   []*Operator
	Edges []Edge
	Tasks []Task

	// derived structures, computed by Build
	opTasks   [][]TaskID      // operator index -> its task IDs
	inEdges   [][]int         // operator index -> incoming Edge indices
	outEdges  [][]int         // operator index -> outgoing Edge indices
	inputs    [][]InputStream // task -> input streams (one per upstream op)
	outputs   [][]Substream   // task -> outgoing substreams
	outRate   []float64       // task -> failure-free output rate
	opOrder   []int           // operator indices in topological order
	sourceOps []int
	sinkOps   []int
}

// NumTasks returns the total number of tasks in the topology (|M|).
func (t *Topology) NumTasks() int { return len(t.Tasks) }

// NumOps returns the number of operators.
func (t *Topology) NumOps() int { return len(t.Ops) }

// TasksOf returns the task IDs of operator op in task-index order. The
// returned slice must not be modified.
func (t *Topology) TasksOf(op int) []TaskID { return t.opTasks[op] }

// InputsOf returns the input streams of the given task, one per upstream
// neighbouring operator, ordered by upstream operator index. The returned
// slice must not be modified.
func (t *Topology) InputsOf(id TaskID) []InputStream { return t.inputs[id] }

// OutputsOf returns the outgoing substreams of the given task. The
// returned slice must not be modified.
func (t *Topology) OutputsOf(id TaskID) []Substream { return t.outputs[id] }

// OutRate returns the failure-free output rate of the given task.
func (t *Topology) OutRate(id TaskID) float64 { return t.outRate[id] }

// SourceOps returns the indices of the source operators (no inputs).
func (t *Topology) SourceOps() []int { return t.sourceOps }

// SinkOps returns the indices of the sink operators (no outputs). These
// produce the final outputs of the topology (§III-A2).
func (t *Topology) SinkOps() []int { return t.sinkOps }

// SinkTasks returns the IDs of all tasks belonging to sink operators.
func (t *Topology) SinkTasks() []TaskID {
	var out []TaskID
	for _, op := range t.sinkOps {
		out = append(out, t.opTasks[op]...)
	}
	return out
}

// OpOrder returns the operator indices in a topological order (sources
// first). The returned slice must not be modified.
func (t *Topology) OpOrder() []int { return t.opOrder }

// UpstreamOps returns the indices of the operators feeding op, ordered by
// operator index.
func (t *Topology) UpstreamOps(op int) []int {
	var ups []int
	for _, ei := range t.inEdges[op] {
		ups = append(ups, t.Edges[ei].From)
	}
	sort.Ints(ups)
	return ups
}

// DownstreamOps returns the indices of the operators fed by op, ordered
// by operator index.
func (t *Topology) DownstreamOps(op int) []int {
	var downs []int
	for _, ei := range t.outEdges[op] {
		downs = append(downs, t.Edges[ei].To)
	}
	sort.Ints(downs)
	return downs
}

// EdgeBetween returns the operator-level edge from -> to, if any.
func (t *Topology) EdgeBetween(from, to int) (Edge, bool) {
	for _, ei := range t.outEdges[from] {
		if t.Edges[ei].To == to {
			return t.Edges[ei], true
		}
	}
	return Edge{}, false
}

// IsSource reports whether op is a source operator.
func (t *Topology) IsSource(op int) bool {
	return len(t.inEdges[op]) == 0
}

// IsSink reports whether op is a sink operator.
func (t *Topology) IsSink(op int) bool {
	return len(t.outEdges[op]) == 0
}

// Weight returns the workload weight of task id (1 when the operator has
// uniform weights).
func (t *Topology) Weight(id TaskID) float64 {
	return t.Tasks[id].Weight
}
