package engine

import (
	"errors"
	"maps"
	"slices"

	"repro/internal/sim"
	"repro/internal/topology"
)

// This file holds the engine's image: the state Mark records at the
// current instant and Reset restores. New records time zero, so an
// engine that is never marked resets to a fresh start, and a campaign
// that marks its engines just before the earliest failure wave runs the
// shared failure-free prefix once per engine instead of once per
// scenario.
//
// An image only ever holds failure-free state: every runtime is the
// immortal primary or replica built by New, the master tracks no
// failure, and the pending events are the timers — the heartbeat,
// checkpoint and replica-ack timers are immutable, so they are kept by
// reference, and the batch tick carries its batch number, so it is kept
// by value — and the pooled delivery, batch-completion and trim events,
// which are recycled on fire and are therefore kept by value and drawn
// from the pools again on restore.

// image is one recorded engine state.
type image struct {
	now    sim.Time
	seq    uint64      // clock counter when recorded
	events []sim.Event // pooled runners point at private copies
	prim   []taskImage // by task ID
	repl   []taskImage // by task ID; zero where the task has no replica
	store  []*checkpointData

	sinks        []SinkRecord
	sinkTuples   int
	sinkAcct     [][]sinkBatchAcct
	currentBatch int
}

// taskImage is the recorded state of one task runtime. The operator
// state goes through the OperatorFunc Snapshot/Restore contract, like a
// checkpoint; the open-batch records are deep copies, because their
// staged tuple backings return to the pool when a batch closes. Output
// buffer contents are shared: an emitted batch's tuples are never
// written again.
type taskImage struct {
	isReplica      bool
	epoch          int
	procScheduled  bool
	busyUntil      sim.Time
	nextBatch      int
	processedBatch int
	ackBatch       int
	procCPU        sim.Time
	ckptCPU        sim.Time
	state          []byte // operator Snapshot; nil for a source
	winBase        int
	recs           []batchRec
	outBuf         []replayQueue
	ckptBound      []int
	tupleProgress  []int64
}

// Mark records the engine's state at the current instant: the clock's
// pending events with their firing order, every task runtime's open
// batches, output buffers, checkpoint bounds, progress counters, epoch
// and operator state, the checkpoint store and the sink ledger. Every
// later Reset returns the engine there, until the next Mark.
//
// Mark fails once a failure has been scheduled (and until the next
// Reset): an image holds failure-free state only. A scenario that
// schedules its failures after Mark or Reset, all after the marked
// instant, runs bit-identically to the same scenario on a fresh engine
// — same-instant ties included, because after either call the clock
// numbers the events scheduled next as if they were scheduled right
// after New, ahead of every event the prefix scheduled (see
// sim.Clock.Restore).
func (e *Engine) Mark() error {
	if e.failing {
		return errors.New("engine: Mark after a failure was scheduled; an image holds failure-free state only")
	}
	live := e.mark()
	e.clock.Restore(e.img.now, e.img.seq, e.armed, live)
	return nil
}

// mark records the image and returns the pending events it copied (New
// records time zero through it).
func (e *Engine) mark() []sim.Event {
	img := image{
		now:          e.clock.Now(),
		prim:         make([]taskImage, len(e.prim)),
		repl:         make([]taskImage, len(e.repl)),
		store:        make([]*checkpointData, len(e.store)),
		sinks:        slices.Clone(e.sinks),
		sinkTuples:   e.sinkTuples,
		sinkAcct:     make([][]sinkBatchAcct, len(e.sinkAcct)),
		currentBatch: e.currentBatch,
	}
	live, seq := e.clock.AppendPending(nil)
	img.events, img.seq = slices.Clone(live), seq
	for i := range img.events {
		switch r := img.events[i].Run.(type) {
		case *deliveryEvent:
			c := *r
			img.events[i].Run = &c
		case *procEvent:
			c := *r
			img.events[i].Run = &c
		case *trimEvent:
			c := *r
			img.events[i].Run = &c
		case *batchTick:
			c := *r
			img.events[i].Run = &c
		}
	}
	for id, rt := range e.prim {
		img.prim[id] = rt.mark()
		if rep := e.repl[id]; rep != nil {
			img.repl[id] = rep.mark()
		}
		img.sinkAcct[id] = slices.Clone(e.sinkAcct[id])
	}
	for id, ck := range e.store {
		if ck != nil {
			img.store[id] = newCheckpointData()
			img.store[id].copyFrom(ck)
		}
	}
	e.img = img
	return live
}

// Reset returns the engine to the state the last Mark recorded, or to
// its initial state at time zero when Mark was never called, reusing
// the routing, buffers and pools built by New. Every runtime gets fresh
// operator/source instances from the factories, loaded with the
// recorded operator state; failures, recoveries and sink output since
// the mark are dropped, and the cluster's failure flags are cleared
// (placement is kept). A reset engine runs bit-identically to a freshly
// constructed one driven to the marked instant, so Monte-Carlo
// campaigns reuse one engine per worker instead of rebuilding the
// environment per scenario. Reset assumes the Setup's factories return
// equivalent fresh instances on every call and that Restore reproduces
// a Snapshot — the properties a fresh Setup per scenario and checkpoint
// recovery already rely on.
func (e *Engine) Reset() {
	img := &e.img
	e.clus.Reset()
	evs := append(e.evs[:0], img.events...)
	for i := range evs {
		switch r := evs[i].Run.(type) {
		case *deliveryEvent:
			de := e.getDeliveryEvent()
			*de = *r
			evs[i].Run = de
		case *procEvent:
			pe := e.getProcEvent()
			*pe = *r
			evs[i].Run = pe
		case *trimEvent:
			te := e.getTrimEvent()
			*te = *r
			evs[i].Run = te
		case *batchTick:
			*e.tick = *r
			evs[i].Run = e.tick
		}
	}
	e.clock.Restore(img.now, img.seq, e.armed, evs)
	clear(evs)
	e.evs = evs[:0]
	for id := range e.tasks {
		e.prim[id].restore(&img.prim[id])
		e.tasks[id] = e.prim[id]
		e.replicas[id] = e.repl[id]
		if rep := e.repl[id]; rep != nil {
			rep.restore(&img.repl[id])
		}
		e.sinkAcct[id] = append(e.sinkAcct[id][:0], img.sinkAcct[id]...)
	}
	e.master.reset()
	for id, src := range img.store {
		if src == nil {
			e.store[id] = nil
			continue
		}
		if e.store[id] == nil {
			e.store[id] = newCheckpointData()
		}
		e.store[id].copyFrom(src)
	}
	e.sinks = append(e.sinks[:0], img.sinks...)
	e.sinkTuples = img.sinkTuples
	e.currentBatch = img.currentBatch
	e.failing = false
}

// mark records the runtime's state.
func (rt *taskRuntime) mark() taskImage {
	im := taskImage{
		isReplica:      rt.isReplica,
		epoch:          rt.epoch,
		procScheduled:  rt.procScheduled,
		busyUntil:      rt.busyUntil,
		nextBatch:      rt.nextBatch,
		processedBatch: rt.processedBatch,
		ackBatch:       rt.ackBatch,
		procCPU:        rt.procCPU,
		ckptCPU:        rt.ckptCPU,
		winBase:        rt.win.base,
		outBuf:         copyQueues(nil, rt.outBuf),
		ckptBound:      slices.Clone(rt.ckptBound),
		tupleProgress:  slices.Clone(rt.tupleProgress),
	}
	if !rt.isSource {
		im.state, _ = rt.udf.Snapshot(nil)
	}
	for i := range rt.win.recs {
		if r := &rt.win.recs[i]; r.batch >= 0 {
			im.recs = append(im.recs, r.clone())
		}
	}
	return im
}

// restore returns the runtime to a recorded state: a fresh operator or
// source instance loaded with the recorded operator state, the way a
// checkpoint restore loads it, and the recorded open batches, buffers
// and counters. A recorded state is failure-free, so the owed-input and
// tentative marks are empty.
func (rt *taskRuntime) restore(im *taskImage) {
	e := rt.eng
	rt.isReplica = im.isReplica
	rt.failed, rt.recovering, rt.promoted = false, false, false
	rt.epoch = im.epoch
	rt.procScheduled = im.procScheduled
	rt.busyUntil = im.busyUntil
	rt.nextBatch, rt.processedBatch, rt.ackBatch = im.nextBatch, im.processedBatch, im.ackBatch
	rt.procCPU, rt.ckptCPU = im.procCPU, im.ckptCPU
	rt.sinkOut = rt.sinkOut[:0]
	rt.sinkCount = 0
	clear(rt.emitBuf)
	clear(rt.missIn)
	clear(rt.tentOut)
	rt.outBuf = copyQueues(rt.outBuf, im.outBuf)
	copy(rt.ckptBound, im.ckptBound)
	copy(rt.tupleProgress, im.tupleProgress)
	rt.win.resetTo(im.winBase, &e.tuples)
	for i := range im.recs {
		rt.win.load(&im.recs[i], &e.tuples)
	}
	rt.instantiate()
	if !rt.isSource {
		if err := rt.udf.Restore(im.state); err != nil {
			panic("engine: restoring a marked operator state failed: " + err.Error())
		}
	}
}

func newCheckpointData() *checkpointData {
	return &checkpointData{
		tentOut: make(map[int]bool),
		missIn:  make(map[int]map[topology.TaskID]bool),
	}
}

// copyFrom overwrites the checkpoint with a copy of src, recycling its
// queues, maps and state buffer in place like takeCheckpoint does.
func (ck *checkpointData) copyFrom(src *checkpointData) {
	ck.batch, ck.bytes = src.batch, src.bytes
	ck.state = append(ck.state[:0], src.state...)
	ck.outBuf = copyQueues(ck.outBuf, src.outBuf)
	clear(ck.tentOut)
	maps.Copy(ck.tentOut, src.tentOut)
	clear(ck.missIn)
	for b, owed := range src.missIn {
		ck.missIn[b] = maps.Clone(owed)
	}
}
