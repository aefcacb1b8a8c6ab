package engine

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Setup describes an engine instance.
type Setup struct {
	Topology *topology.Topology
	Cluster  *cluster.Cluster
	Config   Config
	// Sources maps each source operator index to its source factory.
	Sources map[int]SourceFactory
	// Operators maps each non-source operator index to its UDF factory.
	Operators map[int]OperatorFactory
	// Strategies selects the fault-tolerance technique per task; nil
	// means StrategyCheckpoint for every task.
	Strategies []Strategy
	// Placement selects how active replicas are placed on standby
	// nodes. The zero value is cluster.PlacementAntiAffinity: a replica
	// never shares its primary's rack, so a whole-domain burst cannot
	// kill both copies. Replicas already placed on the cluster are kept.
	Placement cluster.PlacementPolicy
}

// Engine executes a topology on the discrete-event kernel, implementing
// the PPA fault-tolerance framework of §V.
type Engine struct {
	topo      *topology.Topology
	clus      *cluster.Cluster
	cfg       Config
	clock     *sim.Clock
	sources   map[int]SourceFactory
	operators map[int]OperatorFactory
	strategy  []Strategy

	tasks    []*taskRuntime // current primary incarnation per task
	replicas []*taskRuntime // active replica per task (nil if none)
	// prim and repl are the immortal runtime objects built at New:
	// recovery may point tasks/replicas at fresh incarnations, but
	// Reset always restores (and reuses) these originals.
	prim []*taskRuntime
	repl []*taskRuntime

	master *master
	store  []*checkpointData // latest checkpoint by task ID; nil before the first
	// senderIdx[from][slot] is task from's compact upstream index at its
	// recipient in that slot. Every incarnation of either task has the
	// same upstreams and slots, so New computes it once per edge.
	senderIdx [][]int32

	sinks      []SinkRecord
	sinkTuples int // total tuples (materialised + counted) seen at sinks
	// sinkAcct is the per-(sink task, batch) output accounting: one
	// slice per task, indexed by batch and grown on demand (nil for
	// tasks that never recorded a sink batch), so recording a batch
	// indexes directly and AccuracyStats walks (task, batch) order
	// without sorting.
	sinkAcct     [][]sinkBatchAcct
	currentBatch int        // last batch emitted by the source ticker
	tick         *batchTick // the source ticker, which the image keeps by value

	// img is the state the last Mark recorded (time zero, recorded by
	// New, until Mark is called); Reset restores it, staging the events
	// in evs. armed is the clock counter once New armed the tickers:
	// events scheduled after a Reset are numbered from there, as in a
	// run from time zero. failing is set once a failure is scheduled,
	// which bars Mark until the next Reset.
	img     image
	evs     []sim.Event
	armed   uint64
	failing bool

	// Hot-path object pools, all single-threaded like the simulation:
	// staged-input tuple backings, batch-completion events, delivery
	// events and checkpoint-trim notifications are recycled instead of
	// allocated per event.
	tuples    tuplePool
	procFree  []*procEvent
	delivFree []*deliveryEvent
	trimFree  []*trimEvent
}

// checkpointData is one stored checkpoint: computation state plus the
// output buffer (§II-B), the tentative marks of the buffered batches
// and the record of still-owed (fabricated) inputs, so a restored task
// keeps accepting the late corrections of batches it closed tentative
// before the snapshot. The object (and its queues, maps and state
// buffer) is recycled in place when the task's next checkpoint replaces
// it.
type checkpointData struct {
	batch   int
	state   []byte
	outBuf  []replayQueue // by recipient slot, as taskRuntime.outBuf
	tentOut map[int]bool
	missIn  map[int]map[topology.TaskID]bool
	bytes   int // charged size: len(state) + tupleBytes × (counted + buffered tuples)
}

// tupleBytes is the modelled checkpoint footprint of one tuple, charged
// alike for the tuples an operator state counts and for buffered output.
const tupleBytes = 16

// sinkBatchAcct is the per-(sink task, batch) output accounting: it
// deduplicates replayed re-emissions (a restored sink reprocesses
// batches it already recorded) and tracks the tentative/corrected
// lifecycle of the batch.
type sinkBatchAcct struct {
	recorded     bool // the sink recorded the batch; false for a gap
	count        int  // tuples currently accounted for the batch
	firstCount   int  // tuples recorded when the batch was first seen
	tentative    bool // still tentative (no firm reprocessing yet)
	wasTentative bool // ever recorded tentative
	firstAt      sim.Time
	correctedAt  sim.Time // latest amendment / firm reprocessing; -1 if never
}

// New builds an engine. Placement must already be set on the cluster (or
// use cluster.PlaceRoundRobin); replicas for StrategyActive tasks are
// placed on standby nodes automatically if not placed, using
// Setup.Placement (rack anti-affinity by default).
func New(s Setup) (*Engine, error) {
	if s.Topology == nil {
		return nil, fmt.Errorf("engine: no topology")
	}
	if err := s.Config.validate(); err != nil {
		return nil, err
	}
	cfg := s.Config.withDefaults()
	// The clock gets one lane per constant delay the engine re-arms
	// with: NetDelay (deliveries and trims) first, as the busiest, then
	// the checkpoint, replica-ack and heartbeat intervals.
	e := &Engine{
		topo:      s.Topology,
		clus:      s.Cluster,
		cfg:       cfg,
		clock:     sim.NewClock(cfg.NetDelay, cfg.CheckpointInterval, cfg.ReplicaTrimInterval, cfg.HeartbeatInterval),
		sources:   s.Sources,
		operators: s.Operators,
	}
	if e.clus == nil {
		e.clus = cluster.New(1, 1)
		if err := e.clus.PlaceRoundRobin(e.topo); err != nil {
			return nil, err
		}
	}
	for _, op := range e.topo.SourceOps() {
		if _, ok := e.sources[op]; !ok {
			return nil, fmt.Errorf("engine: no source factory for operator %s", e.topo.Ops[op].Name)
		}
	}
	for op := range e.topo.Ops {
		if e.topo.IsSource(op) {
			continue
		}
		if _, ok := e.operators[op]; !ok {
			return nil, fmt.Errorf("engine: no operator factory for %s", e.topo.Ops[op].Name)
		}
	}
	n := e.topo.NumTasks()
	e.strategy = make([]Strategy, n)
	if s.Strategies != nil {
		if len(s.Strategies) != n {
			return nil, fmt.Errorf("engine: %d strategies for %d tasks", len(s.Strategies), n)
		}
		copy(e.strategy, s.Strategies)
	}
	e.store = make([]*checkpointData, n)
	e.sinkAcct = make([][]sinkBatchAcct, n)
	e.tasks = make([]*taskRuntime, n)
	e.replicas = make([]*taskRuntime, n)
	e.prim = make([]*taskRuntime, n)
	e.repl = make([]*taskRuntime, n)
	var replicated []topology.TaskID
	for id := 0; id < n; id++ {
		tid := topology.TaskID(id)
		e.prim[id] = newTaskRuntime(e, tid, false)
		e.tasks[id] = e.prim[id]
		if e.strategy[id] == StrategyActive {
			e.repl[id] = newTaskRuntime(e, tid, true)
			e.replicas[id] = e.repl[id]
			if _, ok := e.clus.ReplicaNodeOf(tid); !ok {
				replicated = append(replicated, tid)
			}
		}
	}
	if len(replicated) > 0 {
		if err := e.clus.PlaceReplicas(replicated, s.Placement); err != nil {
			return nil, err
		}
	}
	e.senderIdx = make([][]int32, n)
	for id, rt := range e.prim {
		idx := make([]int32, len(rt.downs))
		for _, d := range rt.downs {
			idx[d.slot], _ = e.prim[d.id].upIdx(topology.TaskID(id))
		}
		e.senderIdx[id] = idx
	}
	e.master = newMaster(e)
	e.armTickers()
	e.mark()
	e.armed = e.img.seq
	return e, nil
}

// armTickers arms the self-perpetuating timers once: the batch tick, the
// heartbeat, the per-task checkpoints and the per-replica acks, one
// long-lived Runner per chain. Run only advances the clock, so timer
// events beyond the horizon simply wait.
//
// Checkpoint offsets are scattered deterministically (golden-ratio
// hashing of the task id) so that checkpoints are asynchronous and
// uncorrelated across tasks, as in real deployments — the source of the
// §V-B synchronisation cost when recovering correlated failures.
func (e *Engine) armTickers() {
	e.tick = &batchTick{e: e}
	e.clock.AtRun(e.tick.at(), e.tick)
	e.clock.AfterRun(e.cfg.HeartbeatInterval, &heartbeatTimer{e: e})
	n := e.topo.NumTasks()
	if e.cfg.CheckpointInterval > 0 {
		ckpts := make([]checkpointTimer, n)
		for id := range ckpts {
			if e.strategy[id] == StrategySourceReplay {
				continue // Storm mode keeps no checkpoints
			}
			frac := float64(id+1) * 0.6180339887498949
			frac -= float64(int(frac))
			ckpts[id] = checkpointTimer{e: e, id: topology.TaskID(id)}
			e.clock.AtRun(e.clock.Now()+e.cfg.CheckpointInterval*sim.Time(frac), &ckpts[id])
		}
	}
	acks := make([]replicaAck, n)
	for id, rep := range e.replicas {
		if rep != nil {
			acks[id] = replicaAck{e: e, id: topology.TaskID(id)}
			e.clock.AfterRun(e.cfg.ReplicaTrimInterval, &acks[id])
		}
	}
}

// Config returns the effective configuration (defaults applied).
func (e *Engine) Config() Config { return e.cfg }

// Topology returns the executed topology.
func (e *Engine) Topology() *topology.Topology { return e.topo }

// deliveryEvent is the pooled delivery of one batch fragment (and
// punctuation) between tasks, to the recipient to, where the sender has
// the compact upstream index ui. Events are never cancelled, so
// recycling on fire is safe.
type deliveryEvent struct {
	e       *Engine
	to      topology.TaskID
	ui      int32
	batch   int
	content Batch
	d       delivery
}

// Run implements sim.Runner: the delivery fires after the network
// delay; the current primary incarnation and the replica of the
// destination both receive it.
func (de *deliveryEvent) Run() {
	e, to, ui, batch, content, d := de.e, de.to, de.ui, de.batch, de.content, de.d
	de.content = Batch{} // drop the tuple reference while pooled
	e.delivFree = append(e.delivFree, de)
	if rt := e.tasks[to]; rt != nil {
		rt.receive(ui, batch, content, d)
	}
	if rep := e.replicas[to]; rep != nil {
		rep.receive(ui, batch, content, d)
	}
}

// deliver schedules the delivery of a batch fragment from one task to
// the recipient in its slot after the network delay, on a pooled event
// in the clock's lane of that delay.
func (e *Engine) deliver(from topology.TaskID, to recipient, batch int, content Batch, d delivery) {
	de := e.getDeliveryEvent()
	de.e, de.to, de.ui, de.batch, de.content, de.d = e, to.id, e.senderIdx[from][to.slot], batch, content, d
	e.clock.AfterRun(e.cfg.NetDelay, de)
}

func (e *Engine) getDeliveryEvent() *deliveryEvent {
	if n := len(e.delivFree); n > 0 {
		de := e.delivFree[n-1]
		e.delivFree[n-1] = nil
		e.delivFree = e.delivFree[:n-1]
		return de
	}
	return &deliveryEvent{}
}

func (e *Engine) getProcEvent() *procEvent {
	if n := len(e.procFree); n > 0 {
		pe := e.procFree[n-1]
		e.procFree[n-1] = nil
		e.procFree = e.procFree[:n-1]
		return pe
	}
	return &procEvent{}
}

func (e *Engine) putProcEvent(pe *procEvent) {
	pe.rt = nil
	e.procFree = append(e.procFree, pe)
}

// Run advances the simulation to the given virtual time, driving source
// batches, heartbeats, checkpoints and replica trims. Run may be called
// repeatedly with increasing times.
func (e *Engine) Run(until sim.Time) {
	e.clock.RunUntil(until)
}

// batchTick is the source batch ticker: batch b is emitted at its end
// boundary (b+1)*BatchInterval. The time is computed from b, not added
// up interval by interval, so a non-integer interval accumulates no
// rounding; the tick therefore re-arms on the heap, not on a lane. It
// carries its batch number, so the image keeps it by value.
type batchTick struct {
	e *Engine
	b int
}

// at is the firing time of batch b's tick.
func (t *batchTick) at() sim.Time { return sim.Time(float64(t.b+1)) * t.e.cfg.BatchInterval }

// Run implements sim.Runner: emit batch b at every live source task,
// fabricate punctuations for the failed tasks, and arm the next tick.
func (t *batchTick) Run() {
	e, b := t.e, t.b
	e.currentBatch = b
	for _, op := range e.topo.SourceOps() {
		for _, id := range e.topo.TasksOf(op) {
			rt := e.tasks[id]
			if rt != nil && !rt.failed && rt.isSource {
				rt.emitSourceBatch(b)
			}
		}
	}
	e.master.fabricate()
	t.b++
	e.clock.AtRun(t.at(), t)
}

// heartbeatTimer drives the master's failure detection every
// HeartbeatInterval. The engine's timers re-arm on the clock's lane of
// their interval; at firing time now is the firing time, so now+interval
// is the next one exactly.
type heartbeatTimer struct{ e *Engine }

// Run implements sim.Runner.
func (h *heartbeatTimer) Run() {
	h.e.master.heartbeat()
	h.e.clock.AfterRun(h.e.cfg.HeartbeatInterval, h)
}

// checkpointTimer is one task's periodic checkpoint.
type checkpointTimer struct {
	e  *Engine
	id topology.TaskID
}

// Run implements sim.Runner.
func (t *checkpointTimer) Run() {
	e, id := t.e, t.id
	// A failed StrategyNone task never gets a new incarnation: stop the
	// dead timer chain instead of re-arming it forever.
	if rt := e.tasks[id]; rt != nil && rt.failed && e.strategy[id] == StrategyNone {
		return
	}
	e.takeCheckpoint(id)
	e.clock.AfterRun(e.cfg.CheckpointInterval, t)
}

// replicaAck is the periodic primary->replica progress ack of one task.
type replicaAck struct {
	e  *Engine
	id topology.TaskID
}

// Run implements sim.Runner.
func (a *replicaAck) Run() {
	e, id := a.e, a.id
	rep := e.replicas[id]
	// The replica is gone (promoted) or its standby node failed: acking a
	// dead replica is wrong and the timer chain can never become useful
	// again, so it stops here.
	if rep == nil || rep.failed || !rep.isReplica {
		return
	}
	if prim := e.tasks[id]; prim != nil && !prim.failed {
		rep.ackAndTrim(prim.processedBatch, e.cfg.CheckpointInterval > 0)
	}
	e.clock.AfterRun(e.cfg.ReplicaTrimInterval, a)
}

// takeCheckpoint snapshots one task's state and output buffer, charges
// the save cost, stores the checkpoint on the standby store and asks the
// upstream tasks to trim their output buffers (§II-B, §V-B). The task's
// previous checkpointData (queues, maps and state buffer) is recycled in
// place: once replaced it can never be restored again.
func (e *Engine) takeCheckpoint(id topology.TaskID) {
	rt := e.tasks[id]
	if rt == nil || rt.failed {
		return
	}
	ck := e.store[id]
	if ck == nil {
		ck = newCheckpointData()
		e.store[id] = ck
	}
	var counted int
	ck.state, counted = rt.snapshotState(ck.state[:0])
	bytes := len(ck.state) + counted*tupleBytes
	ck.outBuf = copyQueues(ck.outBuf, rt.outBuf)
	for s := range rt.outBuf {
		bytes += rt.outBuf[s].count() * tupleBytes // buffered tuples are part of the checkpoint payload
	}
	clear(ck.tentOut)
	for b, t := range rt.tentOut {
		ck.tentOut[b] = t
	}
	clear(ck.missIn)
	for b, owed := range rt.missIn {
		if b > rt.processedBatch {
			continue // open batches are re-staged from scratch on restore
		}
		m := make(map[topology.TaskID]bool, len(owed))
		for u, v := range owed {
			m[u] = v
		}
		ck.missIn[b] = m
	}
	ck.batch = rt.processedBatch
	ck.bytes = bytes
	cost := e.cfg.CheckpointFixed + sim.Time(float64(bytes)/e.cfg.CheckpointByteRate)
	rt.busyUntil = maxTime(rt.busyUntil, e.clock.Now()) + cost
	rt.ckptCPU += cost

	// Notify upstream neighbours (and their replicas, which hold the
	// same buffers) to trim their buffers for this task.
	for _, u := range rt.upstreams {
		e.scheduleTrim(u, id, rt.processedBatch)
	}
}

// trimEvent is the pooled trim notification of one upstream task after
// a downstream checkpoint.
type trimEvent struct {
	e        *Engine
	up, down topology.TaskID
	ck       int
}

// Run implements sim.Runner.
func (te *trimEvent) Run() {
	e, up, down, ck := te.e, te.up, te.down, te.ck
	e.trimFree = append(e.trimFree, te)
	if u := e.tasks[up]; u != nil && !u.failed {
		u.trimFor(down, ck)
	}
	if rep := e.replicas[up]; rep != nil && !rep.failed {
		rep.trimFor(down, ck)
	}
}

func (e *Engine) scheduleTrim(up, down topology.TaskID, ck int) {
	te := e.getTrimEvent()
	te.e, te.up, te.down, te.ck = e, up, down, ck
	e.clock.AfterRun(e.cfg.NetDelay, te)
}

func (e *Engine) getTrimEvent() *trimEvent {
	if n := len(e.trimFree); n > 0 {
		te := e.trimFree[n-1]
		e.trimFree[n-1] = nil
		e.trimFree = e.trimFree[:n-1]
		return te
	}
	return &trimEvent{}
}

// ScheduleNodeFailure injects a node failure at the given virtual time.
func (e *Engine) ScheduleNodeFailure(node cluster.NodeID, at sim.Time) {
	e.ScheduleNodeFailures([]cluster.NodeID{node}, at)
}

// ScheduleNodeFailures injects a simultaneous failure of a set of nodes
// at the given virtual time — one correlated burst. Failing a standby
// node kills the active replicas it hosts, so a burst that spans both a
// primary and its replica forces the fallback to checkpoint recovery.
func (e *Engine) ScheduleNodeFailures(nodes []cluster.NodeID, at sim.Time) {
	set := append([]cluster.NodeID(nil), nodes...)
	e.failing = true
	e.clock.At(at, func() { e.injectNodeFailures(set) })
}

// ScheduleDomainFailure injects the correlated failure of one failure
// domain (rack, zone, ...) at the given virtual time: every node of the
// domain subtree goes down at once.
func (e *Engine) ScheduleDomainFailure(dom cluster.DomainID, at sim.Time) {
	e.failing = true
	e.clock.At(at, func() { e.injectNodeFailures(e.clus.DomainNodes(dom)) })
}

// injectNodeFailures is the common burst handler: mark the nodes
// failed, fail the primary tasks placed on them, fail the primaries
// that are promoted replicas running on a failed standby node (the
// placement map does not know those hosts), and kill the active
// replicas hosted on failed standby nodes.
func (e *Engine) injectNodeFailures(nodes []cluster.NodeID) {
	var ids []topology.TaskID
	for _, n := range nodes {
		ids = append(ids, e.clus.FailNode(n)...)
	}
	for id, rt := range e.tasks {
		if rt == nil || rt.failed || !rt.promoted {
			continue
		}
		if n, ok := e.clus.ReplicaNodeOf(topology.TaskID(id)); ok {
			if nd := e.clus.Node(n); nd != nil && nd.Failed {
				ids = append(ids, topology.TaskID(id))
			}
		}
	}
	sortIDs(ids)
	e.failReplicasOnFailedNodes()
	e.failTasks(ids)
}

// failReplicasOnFailedNodes marks the active replicas hosted on failed
// standby nodes as failed themselves; recovery then falls back to the
// passive (checkpoint) layer.
func (e *Engine) failReplicasOnFailedNodes() {
	for id, rep := range e.replicas {
		if rep == nil || rep.failed {
			continue
		}
		node, ok := e.clus.ReplicaNodeOf(topology.TaskID(id))
		if !ok {
			continue
		}
		if n := e.clus.Node(node); n != nil && n.Failed {
			rep.failed = true
		}
	}
}

// ScheduleCorrelatedFailure fails every processing node at the given
// time — the paper's correlated-failure injection.
func (e *Engine) ScheduleCorrelatedFailure(at sim.Time) {
	e.failing = true
	e.clock.At(at, func() {
		ids := e.clus.FailAllProcessing()
		e.failTasks(ids)
	})
}

// ScheduleTaskFailures fails a specific set of tasks at the given time
// (independent of node placement), useful for targeted experiments.
func (e *Engine) ScheduleTaskFailures(ids []topology.TaskID, at sim.Time) {
	sorted := append([]topology.TaskID(nil), ids...)
	sortIDs(sorted)
	e.failing = true
	e.clock.At(at, func() { e.failTasks(sorted) })
}

func (e *Engine) failTasks(ids []topology.TaskID) {
	for _, id := range ids {
		rt := e.tasks[id]
		if rt == nil || rt.failed {
			continue
		}
		rt.failed = true
		e.master.onFailure(id, rt)
	}
}

// recordSinkBatch accounts one batch completion at a sink task.
// Accounting is deduplicated per (task, batch): a restored sink that
// reprocesses batches it already recorded does not count them twice. A
// firm reprocessing of a batch first recorded tentative replaces it and
// marks the batch corrected — the post-recovery correction a restored
// sink performs implicitly.
func (e *Engine) recordSinkBatch(task topology.TaskID, batch int, tuples []Tuple, extra int, tentative bool) {
	total := len(tuples) + extra
	now := e.clock.Now()
	acct := e.sinkAcct[task]
	for len(acct) <= batch {
		acct = append(acct, sinkBatchAcct{})
	}
	e.sinkAcct[task] = acct
	a := &acct[batch]
	if !a.recorded {
		*a = sinkBatchAcct{
			recorded:     true,
			count:        total,
			firstCount:   total,
			tentative:    tentative,
			wasTentative: tentative,
			firstAt:      now,
			correctedAt:  -1,
		}
		e.sinkTuples += total
		for _, t := range tuples {
			e.sinks = append(e.sinks, SinkRecord{Task: task, Batch: batch, Tuple: t, Tentative: tentative, At: now})
		}
		return
	}
	if a.tentative && !tentative {
		e.sinkTuples += total - a.count
		a.count = total
		a.tentative = false
		a.correctedAt = now
		for _, t := range tuples {
			e.sinks = append(e.sinks, SinkRecord{Task: task, Batch: batch, Tuple: t, Amendment: true, At: now})
		}
	}
}

// recordSinkAmendment accounts an amendment delta arriving at a sink
// for a batch it recorded tentative: the delta tuples are added and the
// batch gains (or refreshes) its corrected-at timestamp. Amendments for
// batches never recorded tentative are replay duplicates and ignored.
func (e *Engine) recordSinkAmendment(task topology.TaskID, batch int, tuples []Tuple, extra int) {
	acct := e.sinkAcct[task]
	if batch >= len(acct) || !acct[batch].wasTentative {
		return
	}
	a := &acct[batch]
	total := len(tuples) + extra
	now := e.clock.Now()
	a.count += total
	a.correctedAt = now
	e.sinkTuples += total
	for _, t := range tuples {
		e.sinks = append(e.sinks, SinkRecord{Task: task, Batch: batch, Tuple: t, Amendment: true, At: now})
	}
}

// SinkRecords returns all outputs observed at sink tasks so far,
// including amendment records emitted by the correction layer.
func (e *Engine) SinkRecords() []SinkRecord { return e.sinks }

// SinkTupleCount returns the total number of tuples observed at sink
// tasks so far, counting both materialised tuples and unmaterialised
// (count-only) output. Accounting is deduplicated per (task, batch), so
// recovery replay that re-emits batches at a restored sink does not
// inflate the count past the failure-free volume.
func (e *Engine) SinkTupleCount() int { return e.sinkTuples }

// AccuracyStats summarises the tentative/correction lifecycle of the
// sink output: how much of it was first emitted tentative, how much of
// the tentative output was later corrected (by amendments or firm
// reprocessing), and how long each correction took.
type AccuracyStats struct {
	// FirmTuples and FirmBatches count output that was firm on first
	// emission. TentativeTuples and TentativeBatches count output first
	// emitted tentative (at its original, possibly deficient volume).
	FirmTuples       int
	FirmBatches      int
	TentativeTuples  int
	TentativeBatches int
	// CorrectedBatches counts the tentative batches that received a
	// correction; AmendedTuples is the net tuple volume the corrections
	// added. TentativeBatches - CorrectedBatches batches were never
	// corrected within the run.
	CorrectedBatches int
	AmendedTuples    int
	// CorrectionDelays holds, per corrected batch, the virtual time from
	// the tentative emission to its (latest) correction.
	CorrectionDelays []sim.Time
}

// TentativeFraction is the share of sink tuples first emitted
// tentative. Zero in a failure-free run.
func (s AccuracyStats) TentativeFraction() float64 {
	total := s.FirmTuples + s.TentativeTuples
	if total == 0 {
		return 0
	}
	return float64(s.TentativeTuples) / float64(total)
}

// CorrectedFraction is the share of tentative sink batches that were
// corrected before the end of the run.
func (s AccuracyStats) CorrectedFraction() float64 {
	if s.TentativeBatches == 0 {
		return 0
	}
	return float64(s.CorrectedBatches) / float64(s.TentativeBatches)
}

// AccuracyStats aggregates the per-(task, batch) sink accounting in
// (task, batch) order.
func (e *Engine) AccuracyStats() AccuracyStats {
	var s AccuracyStats
	for _, acct := range e.sinkAcct {
		for i := range acct {
			a := &acct[i]
			switch {
			case !a.recorded:
			case !a.wasTentative:
				s.FirmBatches++
				s.FirmTuples += a.firstCount
			default:
				s.TentativeBatches++
				s.TentativeTuples += a.firstCount
				s.AmendedTuples += a.count - a.firstCount
				if a.correctedAt >= 0 {
					s.CorrectedBatches++
					s.CorrectionDelays = append(s.CorrectionDelays, a.correctedAt-a.firstAt)
				}
			}
		}
	}
	return s
}

// RecoveryStats returns per-task failure/recovery measurements, sorted
// by task ID.
func (e *Engine) RecoveryStats() []RecoveryStat {
	return e.master.stats()
}

// CPUStats returns per-task cumulative processing and checkpointing CPU
// time; the checkpoint/processing ratio reproduces Fig. 9.
type CPUStat struct {
	Task    topology.TaskID
	ProcCPU sim.Time
	CkptCPU sim.Time
}

// CPUStats returns per-task CPU accounting, sorted by task ID.
func (e *Engine) CPUStats() []CPUStat {
	out := make([]CPUStat, 0, len(e.tasks))
	for id, rt := range e.tasks {
		if rt == nil {
			continue
		}
		out = append(out, CPUStat{Task: topology.TaskID(id), ProcCPU: rt.procCPU, CkptCPU: rt.ckptCPU})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Task < out[j].Task })
	return out
}

// TaskProgress returns the last fully processed batch of the task's
// current incarnation.
func (e *Engine) TaskProgress(id topology.TaskID) int {
	if rt := e.tasks[id]; rt != nil {
		return rt.processedBatch
	}
	return -1
}
