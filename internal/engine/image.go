package engine

import (
	"errors"
	"slices"

	"repro/internal/sim"
)

// This file holds the engine's image: the state Mark records at the
// current instant and Reset restores. New records time zero, so an
// engine that is never marked resets to a fresh start, and a campaign
// that marks its engines just before the earliest failure wave runs the
// shared failure-free prefix once per engine instead of once per
// scenario. New keeps its primaries' time-zero images for good
// (Engine.zero): a restart restores them into the restarted runtime.
//
// A runtime's image is its taskState, copied by taskState.copyFrom —
// the one copy that recording, restoring and restarting share, so
// a field added to taskState is recorded and restored with no further
// code — and its operator state, through Snapshot and Restore.
//
// An image only ever holds failure-free state: every task's primary and
// replica are the ones New built in their roles, the master tracks no
// failure, and the pending events are the timers — the heartbeat,
// checkpoint and replica-ack timers are immutable, so they are kept by
// reference, and the batch tick carries its batch number, so it is kept
// by value — and the pooled delivery, batch-completion and trim events,
// which are recycled on fire and are therefore kept by value and drawn
// from the pools again on restore.

// image is one recorded engine state.
type image struct {
	now    sim.Time
	seq    int64       // clock counter when recorded
	events []sim.Event // pooled runners point at private copies
	prim   []taskImage // by task ID
	repl   []taskImage // by task ID; zero where the task has no replica
	store  []checkpointData

	sinks        []SinkRecord
	sinkAcct     [][]sinkBatchAcct
	currentBatch int
}

// taskImage is the recorded state of one task runtime: its taskState,
// copied, and its operator state through the OperatorFunc
// Snapshot/Restore contract, like a checkpoint.
type taskImage struct {
	taskState
	op []byte // operator Snapshot; nil for a source
}

// Mark records the engine's state at the current instant: the clock's
// pending events with their firing order, every task runtime's
// taskState and operator state, the checkpoint store and the sink
// ledger. Every later Reset returns the engine there, until the next
// Mark.
//
// Mark fails once a failure has been scheduled (and until the next
// Reset): an image holds failure-free state only. Mark leaves the
// clock as it is. A scenario that schedules its failures after Mark or
// Reset, all after the marked instant, runs bit-identically to the
// same scenario on a fresh engine — same-instant ties included, because
// the clock fires a failure first among the events of its instant
// however late it was scheduled (sim.Clock.Inject), and Reset puts
// back exactly the events the mark recorded.
func (e *Engine) Mark() error {
	if e.failing {
		return errors.New("engine: Mark after a failure was scheduled; an image holds failure-free state only")
	}
	if e.spliced != nil {
		return errors.New("engine: Mark after RunSpliced stopped early; Reset the engine first")
	}
	e.mark()
	return nil
}

// mark records the image (New records time zero through it).
func (e *Engine) mark() {
	img := image{
		now:          e.clock.Now(),
		prim:         make([]taskImage, len(e.prim)),
		repl:         make([]taskImage, len(e.repl)),
		store:        make([]checkpointData, len(e.store)),
		sinks:        slices.Clone(e.sinks),
		sinkAcct:     make([][]sinkBatchAcct, len(e.sinkAcct)),
		currentBatch: e.currentBatch,
	}
	img.events, img.seq = e.clock.AppendPending(nil)
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
	for id := range e.store {
		img.store[id].copyFrom(&e.store[id])
	}
	e.img = img
}

// Reset returns the engine to the state the last Mark recorded, or to
// its initial state at time zero when Mark was never called. It reuses
// what the engine built or grew: the routing, buffers and pools, every
// checkpoint object, and every runtime's operator and source instance.
// Each operator is loaded with the recorded state through Restore; a
// source is kept as it is, since its batches are a function of the
// batch number. Failures, recoveries and sink output since the mark
// are dropped, and the cluster's failure flags are cleared (placement
// is kept). The pooled events still pending go back to their pools,
// and every task's primary and replica are again the runtimes New
// built, whatever recovery promoted or restarted. A reset engine runs
// bit-identically to a freshly constructed one driven to the marked
// instant, so Monte-Carlo campaigns reuse one engine per worker
// instead of rebuilding the environment per scenario. Reset relies on
// Restore replacing an operator's whole state (see OperatorFunc), as
// checkpoint recovery does.
func (e *Engine) Reset() {
	img := &e.img
	e.clus.Reset()
	e.recycle()
	evs := append(e.pend[:0], img.events...)
	for i := range evs {
		switch r := evs[i].Run.(type) {
		case *deliveryEvent:
			de := e.delivs.get()
			*de = *r
			evs[i].Run = de
		case *procEvent:
			pe := e.procs.get()
			*pe = *r
			evs[i].Run = pe
		case *trimEvent:
			te := e.trims.get()
			*te = *r
			evs[i].Run = te
		case *batchTick:
			*e.tick = *r
			evs[i].Run = e.tick
		}
	}
	e.clock.Restore(img.now, img.seq, evs)
	clear(evs)
	e.pend = evs[:0]
	for id := range e.tasks {
		e.prim[id].restore(&img.prim[id])
		e.tasks[id] = e.prim[id]
		e.replicas[id] = e.repl[id]
		if rep := e.repl[id]; rep != nil {
			rep.restore(&img.repl[id])
		}
		e.sinkAcct[id] = append(e.sinkAcct[id][:0], img.sinkAcct[id]...)
		e.store[id].copyFrom(&img.store[id])
	}
	e.master.reset()
	e.sinks = append(e.sinks[:0], img.sinks...)
	e.currentBatch = img.currentBatch
	e.failing, e.lastFailure, e.spliced = false, 0, nil
}

// recycle returns the pooled events still pending on the clock to their
// pools.
func (e *Engine) recycle() {
	pend, _ := e.clock.AppendPending(e.pend[:0])
	for _, ev := range pend {
		switch r := ev.Run.(type) {
		case *deliveryEvent:
			r.content = Batch{}
			e.delivs.put(r)
		case *procEvent:
			e.procs.put(r)
		case *trimEvent:
			e.trims.put(r)
		case *amendEvent:
			r.delta = Batch{}
			e.amends.put(r)
		case *failureEvent:
			e.failures.put(r)
		}
	}
	clear(pend)
	e.pend = pend[:0]
}

// mark records the runtime's state.
func (rt *taskRuntime) mark() taskImage {
	var im taskImage
	im.taskState.copyFrom(&rt.taskState, &rt.eng.tuples)
	if !rt.isSource {
		im.op, _ = rt.udf.Snapshot(nil)
	}
	return im
}

// restore returns the runtime to a recorded state: the state copied
// back into the runtime's own storage, and the operator state loaded
// into its own operator the way a checkpoint restore loads it.
func (rt *taskRuntime) restore(im *taskImage) {
	rt.taskState.copyFrom(&im.taskState, &rt.eng.tuples)
	if !rt.isSource {
		if err := rt.udf.Restore(im.op); err != nil {
			panic("engine: restoring a marked operator state failed: " + err.Error())
		}
	}
}

// copyFrom overwrites the checkpoint with a copy of src, recycling its
// queues, maps and state buffer in place like takeCheckpoint does. A
// src that holds no checkpoint leaves them as they are: only taken is
// copied.
func (ck *checkpointData) copyFrom(src *checkpointData) {
	ck.taken = src.taken
	if !src.taken {
		return
	}
	ck.batch, ck.bytes = src.batch, src.bytes
	ck.state = append(ck.state[:0], src.state...)
	ck.replayState.copyFrom(&src.replayState)
}
