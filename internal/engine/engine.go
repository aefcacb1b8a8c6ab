package engine

import (
	"fmt"
	"slices"

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

	tasks    []*taskRuntime // current primary per task
	replicas []*taskRuntime // active replica per task (nil if none)
	// prim and repl are the runtimes New built, the only ones the
	// engine ever runs: a promotion points tasks at the replica and
	// takes it off replicas, a restore or restart re-initialises the
	// task's current runtime in place (taskRuntime.restart), and Reset
	// points tasks and replicas back at these.
	prim []*taskRuntime
	repl []*taskRuntime
	// scratch holds, by task ID, the operator instance amendments are
	// reprocessed on (nil until the task's first amendment); it is reset
	// with Restore(nil) before every use.
	scratch []OperatorFunc

	master *master
	// store holds the latest checkpoint of each task, by task ID (see
	// checkpoint). Reset keeps every object, so a checkpoint recycles the
	// queues, maps and state buffer of the task's previous one, in this
	// run or an earlier one.
	store []checkpointData
	// senderIdx[from][slot] is task from's compact upstream index at its
	// recipient in that slot. Both runtimes of either task have the
	// same upstreams and slots, so New computes it once per edge.
	senderIdx [][]int32

	sinks []SinkRecord
	// sinkAcct is the per-(sink task, batch) output accounting: one
	// slice per task, indexed by batch and grown on demand (nil for
	// tasks that never recorded a sink batch), so recording a batch
	// indexes directly and AccuracyStats and SinkTupleCount walk
	// (task, batch) order without sorting.
	sinkAcct     [][]sinkBatchAcct
	currentBatch int        // last batch emitted by the source ticker
	tick         *batchTick // the source ticker, which the image keeps by value

	// img is the state the last Mark recorded (time zero, recorded by
	// New, until Mark is called); Reset restores it. zero holds the
	// primaries' time-zero images New records, which no Mark replaces:
	// a restart restores them into the restarted runtime. failing is set
	// once a failure is scheduled, which bars Mark until the next Reset;
	// lastFailure is the latest scheduled injection time.
	img         image
	zero        []taskImage
	failing     bool
	lastFailure sim.Time

	// The re-convergence splice (splice.go): spliced is the trajectory
	// RunSpliced appended the ledger of, nil until then; witness is the
	// part of the state that differed from it at the last check; enc
	// and snap are the encoder's reused buffers, and pend is the event
	// buffer the encoder, Reset and recycle reuse in turn.
	spliced *Trajectory
	witness int
	enc     []byte
	snap    []byte
	pend    []sim.Event

	// Object pools, all single-threaded like the simulation:
	// staged-input tuple backings, batch-completion events, delivery
	// events, checkpoint-trim notifications, amendment completions and
	// failure injections are recycled instead of allocated per event;
	// Reset returns the events still pending to their pools. hit is the
	// scratch list of the tasks a wave fails (injectNodeFailures).
	tuples   tuplePool
	procs    freeList[procEvent]
	delivs   freeList[deliveryEvent]
	trims    freeList[trimEvent]
	amends   freeList[amendEvent]
	failures freeList[failureEvent]
	hit      []topology.TaskID
}

// freeList is a free list of recycled events of one type.
type freeList[T any] []*T

// get pops a recycled event, or returns a new one when the list is
// empty. A recycled event holds what it held when put: the caller
// overwrites every field it reads.
func (l *freeList[T]) get() *T {
	n := len(*l)
	if n == 0 {
		return new(T)
	}
	x := (*l)[n-1]
	(*l)[n-1] = nil
	*l = (*l)[:n-1]
	return x
}

// put recycles an event that will not fire again.
func (l *freeList[T]) put(x *T) { *l = append(*l, x) }

// checkpointData is one stored checkpoint: computation state plus the
// task's replayState (§II-B). taken is unset until the task's first
// checkpoint. The object (and its queues, maps and state buffer) is
// recycled in place when the task's next checkpoint replaces it.
type checkpointData struct {
	taken bool
	batch int
	state []byte
	replayState
	bytes int // charged size: len(state) + tupleBytes × (counted + buffered tuples)
}

// checkpoint returns task id's latest checkpoint, or nil before its
// first.
func (e *Engine) checkpoint(id topology.TaskID) *checkpointData {
	if ck := &e.store[id]; ck.taken {
		return ck
	}
	return nil
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
	// with: netDelay (deliveries and trims) first, as the busiest, then
	// the checkpoint, replica-ack and heartbeat intervals.
	e := &Engine{
		topo:      s.Topology,
		clus:      s.Cluster,
		cfg:       cfg,
		clock:     sim.NewClock(netDelay, cfg.CheckpointInterval, cfg.ReplicaTrimInterval, cfg.HeartbeatInterval),
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
	e.store = make([]checkpointData, n)
	e.scratch = make([]OperatorFunc, n)
	e.sinkAcct = make([][]sinkBatchAcct, n)
	e.tasks = make([]*taskRuntime, n)
	e.replicas = make([]*taskRuntime, n)
	e.prim = make([]*taskRuntime, n)
	e.repl = make([]*taskRuntime, n)
	var replicated []topology.TaskID
	for id := 0; id < n; id++ {
		tid := topology.TaskID(id)
		e.prim[id] = newTaskRuntime(e, tid)
		e.tasks[id] = e.prim[id]
		if e.strategy[id] == StrategyActive {
			e.repl[id] = newTaskRuntime(e, tid)
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
	e.zero = e.img.prim
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
// delay; the current primary and the replica of the destination both
// receive it.
func (de *deliveryEvent) Run() {
	e, to, ui, batch, content, d := de.e, de.to, de.ui, de.batch, de.content, de.d
	de.content = Batch{} // drop the tuple reference while pooled
	e.delivs.put(de)
	e.tasks[to].receive(ui, batch, content, d)
	if rep := e.replicas[to]; rep != nil {
		rep.receive(ui, batch, content, d)
	}
}

// deliver schedules the delivery of a batch fragment from one task to
// the recipient in its slot after the network delay, on a pooled event
// in the clock's lane of that delay.
func (e *Engine) deliver(from topology.TaskID, to recipient, batch int, content Batch, d delivery) {
	de := e.delivs.get()
	de.e, de.to, de.ui, de.batch, de.content, de.d = e, to.id, e.senderIdx[from][to.slot], batch, content, d
	e.clock.AfterRun(netDelay, de)
}

// scratchOp returns task id's scratch operator for amendments (see
// Engine.scratch), reset to its initial state.
func (e *Engine) scratchOp(id topology.TaskID) OperatorFunc {
	op := e.scratch[id]
	if op == nil {
		op = e.operators[e.topo.Tasks[id].Op](e.topo.Tasks[id].Index)
		e.scratch[id] = op
	}
	// Restore(nil) resets the operator to its initial state.
	_ = op.Restore(nil)
	return op
}

// Run advances the simulation to the given virtual time, driving source
// batches, heartbeats, checkpoints and replica trims. Run may be called
// repeatedly with increasing times.
func (e *Engine) Run(until sim.Time) {
	if e.spliced != nil {
		panic("engine: Run after RunSpliced stopped early; Reset the engine first")
	}
	e.clock.RunUntil(until)
}

// batchTick is the source batch ticker: batch b is emitted at its end
// boundary (b+1)*batchInterval. The time is computed from b (see
// boundary), so the tick re-arms on the heap, not on a lane. It
// carries its batch number, so the image keeps it by value.
type batchTick struct {
	e *Engine
	b int
}

// at is the firing time of batch b's tick.
func (t *batchTick) at() sim.Time { return boundary(t.b) }

// Run implements sim.Runner: emit batch b at every live source task,
// fabricate punctuations for the failed tasks, and arm the next tick.
func (t *batchTick) Run() {
	e, b := t.e, t.b
	e.currentBatch = b
	for _, op := range e.topo.SourceOps() {
		for _, id := range e.topo.TasksOf(op) {
			if rt := e.tasks[id]; !rt.failed && rt.isSource {
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
	// A failed StrategyNone task never restarts: stop the dead timer
	// chain instead of re-arming it forever.
	if e.tasks[id].failed && e.strategy[id] == StrategyNone {
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
	if rep == nil || rep.failed {
		return
	}
	if prim := e.tasks[id]; !prim.failed {
		rep.ackAndTrim(prim.nextBatch-1, e.cfg.CheckpointInterval > 0)
	}
	e.clock.AfterRun(e.cfg.ReplicaTrimInterval, a)
}

// takeCheckpoint snapshots one task's operator state and replayState,
// charges the save cost, stores the checkpoint on the standby store and
// asks the upstream tasks to trim their output buffers (§II-B, §V-B).
// The task's checkpointData (queues, maps and state buffer) is recycled
// in place: once replaced a checkpoint can never be restored again.
func (e *Engine) takeCheckpoint(id topology.TaskID) {
	rt := e.tasks[id]
	if rt.failed {
		return
	}
	ck := &e.store[id]
	ck.taken = true
	var counted int
	ck.state, counted = rt.snapshotState(ck.state[:0])
	bytes := len(ck.state) + counted*tupleBytes
	for s := range rt.outBuf {
		bytes += rt.outBuf[s].count() * tupleBytes // buffered tuples are part of the checkpoint payload
	}
	ck.replayState.copyFrom(&rt.replayState)
	ck.batch = rt.nextBatch - 1
	ck.bytes = bytes
	cost := checkpointFixed + sim.Time(float64(bytes)/checkpointByteRate)
	rt.busyUntil = max(rt.busyUntil, e.clock.Now()) + cost
	rt.ckptCPU += cost

	// Notify upstream neighbours (and their replicas, which hold the
	// same buffers) to trim their buffers for this task.
	for _, u := range rt.upstreams {
		e.scheduleTrim(u, id, ck.batch)
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
	e.trims.put(te)
	if u := e.tasks[up]; !u.failed {
		u.trimFor(down, ck)
	}
	if rep := e.replicas[up]; rep != nil && !rep.failed {
		rep.trimFor(down, ck)
	}
}

func (e *Engine) scheduleTrim(up, down topology.TaskID, ck int) {
	te := e.trims.get()
	te.e, te.up, te.down, te.ck = e, up, down, ck
	e.clock.AfterRun(netDelay, te)
}

// ScheduleNodeFailures injects a simultaneous failure of a set of nodes
// at the given virtual time — one correlated burst, such as a whole
// rack (cluster.Rack.Nodes) or every processing node. Failing a standby
// node kills the active replicas it hosts, so a burst that spans both a
// primary and its replica forces the fallback to checkpoint recovery.
func (e *Engine) ScheduleNodeFailures(nodes []cluster.NodeID, at sim.Time) {
	f := e.failures.get()
	f.nodes, f.tasks = append(f.nodes[:0], nodes...), f.tasks[:0]
	e.scheduleFailure(at, f)
}

// ScheduleTaskFailures fails a specific set of tasks at the given time
// (independent of node placement), useful for targeted experiments.
func (e *Engine) ScheduleTaskFailures(ids []topology.TaskID, at sim.Time) {
	f := e.failures.get()
	f.nodes, f.tasks = f.nodes[:0], append(f.tasks[:0], ids...)
	slices.Sort(f.tasks)
	e.scheduleFailure(at, f)
}

// scheduleFailure schedules one failure injection and records that a
// failure is scheduled: Mark refuses from now on, and RunSpliced
// compares no state before the latest injection has fired. The clock
// fires a failure first among the events of its instant, however late
// it was scheduled (sim.Clock.Inject).
func (e *Engine) scheduleFailure(at sim.Time, f *failureEvent) {
	f.e = e
	e.failing = true
	e.lastFailure = max(e.lastFailure, at)
	e.clock.Inject(at, f)
}

// failureEvent is one pooled failure injection: a wave of nodes, or a
// set of tasks in ascending order. It owns both lists, one of them
// empty, and keeps their storage when recycled.
type failureEvent struct {
	e     *Engine
	nodes []cluster.NodeID
	tasks []topology.TaskID
}

// Run implements sim.Runner.
func (f *failureEvent) Run() {
	f.e.injectNodeFailures(f.nodes)
	f.e.failTasks(f.tasks)
	f.e.failures.put(f)
}

// injectNodeFailures fails a wave of nodes in one pass over them. On
// each node it fails the primaries placed there, the live replicas it
// hosts and the promoted replicas running there, which the placement
// map does not know as primaries. A node that failed in an earlier wave
// killed all of these then, and nothing is placed or promoted onto a
// failed node, so no other node needs a look. The tasks fail in
// ascending order.
func (e *Engine) injectNodeFailures(nodes []cluster.NodeID) {
	hit := e.hit[:0]
	for _, n := range nodes {
		hit = append(hit, e.clus.FailNode(n)...)
		for _, id := range e.clus.ReplicasOn(n) {
			if rep := e.replicas[id]; rep != nil {
				rep.failed = true
			} else if e.tasks[id].promoted {
				hit = append(hit, id)
			}
		}
	}
	slices.Sort(hit)
	e.failTasks(hit)
	e.hit = hit
}

func (e *Engine) failTasks(ids []topology.TaskID) {
	for _, id := range ids {
		rt := e.tasks[id]
		if rt.failed {
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
		for _, t := range tuples {
			e.sinks = append(e.sinks, SinkRecord{Task: task, Batch: batch, Tuple: t, Tentative: tentative, At: now})
		}
		return
	}
	if a.tentative && !tentative {
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
	for _, t := range tuples {
		e.sinks = append(e.sinks, SinkRecord{Task: task, Batch: batch, Tuple: t, Amendment: true, At: now})
	}
}

// SinkRecords returns all outputs observed at sink tasks so far,
// including amendment records emitted by the correction layer.
func (e *Engine) SinkRecords() []SinkRecord { return e.sinks }

// SinkTupleCount returns the total number of tuples observed at sink
// tasks so far, counting both materialised tuples and unmaterialised
// (count-only) output: the sum of the per-(task, batch) ledger.
// Accounting is deduplicated per (task, batch), so recovery replay that
// re-emits batches at a restored sink does not inflate the count past
// the failure-free volume.
func (e *Engine) SinkTupleCount() int {
	n := 0
	for _, acct := range e.sinkAcct {
		for i := range acct {
			n += acct[i].count
		}
	}
	return n
}

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
	// CorrectionDelays holds, per corrected batch, the virtual time in
	// seconds from the tentative emission to its (latest) correction.
	CorrectionDelays []float64
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
					s.CorrectionDelays = append(s.CorrectionDelays, float64(a.correctedAt-a.firstAt))
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

// CPUStats returns per-task CPU accounting, sorted by task ID. After
// RunSpliced stopped early it covers the simulated prefix only: float
// CPU sums cannot be spliced bit-exactly.
func (e *Engine) CPUStats() []CPUStat {
	out := make([]CPUStat, len(e.tasks))
	for id, rt := range e.tasks {
		out[id] = CPUStat{Task: topology.TaskID(id), ProcCPU: rt.procCPU, CkptCPU: rt.ckptCPU}
	}
	return out
}

// TaskProgress returns the last fully processed batch of the task's
// current primary; after RunSpliced stopped early, the one it has at
// the trajectory's horizon.
func (e *Engine) TaskProgress(id topology.TaskID) int {
	if e.spliced != nil {
		return e.spliced.progress[id]
	}
	return e.tasks[id].nextBatch - 1
}
