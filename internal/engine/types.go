// Package engine implements the reproduction's Storm-like massively
// parallel stream processing engine on a deterministic discrete-event
// simulation kernel, following §V of Su & Zhou (ICDE 2016): operators
// parallelised into tasks, key-partitioned substreams, batch processing
// with batch-over punctuations, output buffers with trimming, periodic
// checkpoints to standby nodes, active replicas for a selected task
// subset, failure detection by heartbeat, recovery by replica take-over
// / checkpoint restore + buffer replay / Storm-style source replay, and
// tentative outputs with fabricated punctuations.
//
// Tuples are real data: the engine executes the user-defined operator
// functions on the actual tuple stream, so output-quality experiments
// measure genuine query accuracy. Time, however, is virtual: processing
// and recovery costs advance a sim.Clock according to the calibrated
// cost model in Config, making every run deterministic (see DESIGN.md).
package engine

import (
	"repro/internal/sim"
	"repro/internal/topology"
)

// Tuple is one data item: a key and an opaque value (§II-A).
type Tuple struct {
	Key   string
	Value interface{}
}

// Batch is the content of one processing batch on one substream. For
// workloads where only volumes matter (the recovery-latency
// experiments), tuples may be left unmaterialised: Count carries the
// tuple count and Tuples stays nil. Count >= len(Tuples) always holds.
type Batch struct {
	Count  int
	Tuples []Tuple
}

// Append merges another batch into b.
func (b *Batch) Append(other Batch) {
	b.Count += other.Count
	b.Tuples = append(b.Tuples, other.Tuples...)
}

// Emitter receives the outputs of an operator function.
type Emitter interface {
	// Emit outputs one materialised tuple.
	Emit(t Tuple)
	// EmitCount outputs n unmaterialised tuples (volume-only workloads).
	EmitCount(n int)
}

// OperatorFunc is the user-defined function executed by every task of a
// non-source operator. Implementations must be deterministic: recovery
// replays inputs in the original order and expects identical outputs.
type OperatorFunc interface {
	// ProcessBatch consumes the input of one batch from one upstream
	// operator. in.Count is the tuple count even when in.Tuples is nil.
	// The in.Tuples slice is only valid during the call: the engine
	// recycles the backing array once the batch closes, so an operator
	// that needs tuples beyond the call must copy the values out (all
	// the repo's operators already do — they fold tuples into their own
	// state).
	ProcessBatch(batch int, fromOp int, in Batch, emit Emitter)
	// OnBatchEnd runs after all input streams of the batch were
	// processed; windowed operators typically emit here.
	OnBatchEnd(batch int, emit Emitter)
	// Snapshot appends the operator state to buf and returns the extended
	// slice: state holds exactly the bytes Restore needs. counted is the
	// number of unmaterialised tuples the state models (e.g. the window
	// content of a counting operator); the checkpoint cost model charges
	// them at 16 bytes each on top of len(state), like buffered output.
	// The engine passes each task's previous checkpoint buffer with len
	// 0, so its capacity is reused and its stale content must be
	// overwritten, never read. Stateless operators return nil, 0.
	Snapshot(buf []byte) (state []byte, counted int)
	// Restore loads a state produced by Snapshot; Restore(nil) resets the
	// operator to its initial state.
	Restore(data []byte) error
}

// OperatorFactory builds the OperatorFunc instance for one task of an
// operator; taskIndex is the task's index within the operator.
type OperatorFactory func(taskIndex int) OperatorFunc

// SourceFunc generates the input batches of one source task. BatchAt
// must be deterministic in b — Storm-style recovery replays source
// batches by regenerating them.
type SourceFunc interface {
	BatchAt(b int) Batch
}

// SourceFactory builds the SourceFunc for one task of a source operator.
type SourceFactory func(taskIndex int) SourceFunc

// Strategy selects the fault-tolerance technique protecting a task.
type Strategy int

const (
	// StrategyCheckpoint recovers the task from its latest checkpoint
	// plus upstream buffer replay (the passive approach; all tasks in a
	// PPA plan have at least this).
	StrategyCheckpoint Strategy = iota
	// StrategyActive recovers the task from its active replica on a
	// standby node.
	StrategyActive
	// StrategySourceReplay recovers by replaying source data through the
	// topology (Storm's default technique; no checkpoints).
	StrategySourceReplay
	// StrategyNone never recovers the task. It models the tentative
	// window of a worst-case correlated failure, where passive recovery
	// is far slower than the horizon of interest: the master detects the
	// failure and fabricates punctuations (§V-B) but no new incarnation
	// is started.
	StrategyNone
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyActive:
		return "active"
	case StrategySourceReplay:
		return "source-replay"
	case StrategyNone:
		return "none"
	default:
		return "checkpoint"
	}
}

// Strategies is the per-task strategy vector of a PPA plan over n
// tasks: the tasks in active get StrategyActive and every other task
// gets passive. Checkpoints are taken for every task regardless; PPA's
// passive layer covers the whole task set.
func Strategies(n int, passive Strategy, active []topology.TaskID) []Strategy {
	out := make([]Strategy, n)
	for i := range out {
		out[i] = passive
	}
	for _, id := range active {
		out[id] = StrategyActive
	}
	return out
}

// SinkRecord is one output tuple observed at a sink task.
type SinkRecord struct {
	Task  topology.TaskID
	Batch int
	Tuple Tuple
	// Tentative marks outputs produced from a batch that closed with at
	// least one fabricated or tentative punctuation (incomplete input
	// anywhere upstream — the taint propagates to sinks at any depth).
	Tentative bool
	// Amendment marks a correction record: output produced by
	// reprocessing the real data of a batch previously recorded
	// tentative, emitted by the post-recovery correction layer.
	Amendment bool
	// At is the virtual time the record was observed.
	At sim.Time
}
