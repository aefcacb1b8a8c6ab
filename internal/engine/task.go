package engine

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"repro/internal/sim"
	"repro/internal/topology"
)

// route is the fan-out of one task along one operator edge.
type route struct {
	downOp     int
	recipients []topology.TaskID
	// recIdx maps each recipient to its compact index in the task's
	// flattened recipient list: its slot in emitBuf, outBuf and
	// ckptBound.
	recIdx    []int32
	weights   []float64
	weightSum float64
}

// recipient is one downstream task and its slot.
type recipient struct {
	id   topology.TaskID
	slot int32
}

// delivery carries the control flags of one batch message between tasks.
type delivery struct {
	// punct marks the message as carrying the batch-over punctuation.
	punct bool
	// tent marks the payload (and punctuation) as tentative: it was
	// computed from incomplete or itself-tentative input, so every
	// downstream consumer inherits the taint (§V-B Tentative Outputs).
	tent bool
	// fab marks a master-fabricated punctuation: the upstream task is
	// down and its input data for the batch is missing entirely. Implies
	// tent. The receiver records which input is owed so the late real
	// data can trigger an amendment after recovery.
	fab bool
	// amend marks an amendment delta: a correction for a batch the
	// receiver may have already closed on tentative input.
	amend bool
}

// taskRuntime is one runtime of a task: its primary, or its active
// replica. New builds every runtime the engine runs. A task that fails
// and recovers restarts on its current runtime (restart), whose epoch
// then fences the pending completions of the failed life. A runtime is
// the replica while Engine.replicas holds it; a promotion takes it off
// and makes it the task's primary.
//
// A runtime has three parts: the wiring both runtimes of the task
// share, its taskState, and the emit scratch, which is empty between
// events.
type taskRuntime struct {
	eng       *Engine
	id        topology.TaskID
	opIdx     int
	taskIndex int
	isSource  bool
	src       SourceFunc
	udf       OperatorFunc
	// upstreams is sorted by task ID; an upstream's position in it is
	// its compact index into upOps and the window's per-batch state
	// (see upIdx). upOps holds the upstream operator per compact index.
	upstreams []topology.TaskID
	upOps     []int
	routes    []route
	// downs lists every recipient with its slot, sorted by task ID: the
	// replay order of resendSince and the lookup of slotOf.
	downs []recipient

	taskState

	// emit staging during batch processing: one slot per downstream
	// recipient in route order, reused across batches (the tuple
	// backing is handed off to outBuf at finishEmit, so slots restart
	// empty each batch).
	emitBuf   []Batch
	sinkOut   []Tuple
	sinkCount int // unmaterialised tuples emitted at a sink this batch
}

// taskState is the part of a runtime that changes as the task runs.
// With the operator state, which goes through Snapshot and Restore, it
// is what an image records (taskImage) and what copyFrom copies; the
// splice digests part of it (encodeTask, and the table in
// schema_test.go that classifies every field).
type taskState struct {
	failed bool
	// recovering is set while the restarted or promoted runtime works to
	// reach the progress the task had when it failed.
	recovering bool
	// promoted marks a primary that started life as an active replica:
	// it runs on the standby node of the cluster's replica placement,
	// not on the task's primary placement, so node failures must check
	// that host instead.
	promoted bool
	// epoch counts the runtime's restarts and rewinds: a batch
	// completion or amendment carries the epoch it was scheduled in and
	// is dropped when it no longer matches.
	epoch int

	// win holds the per-open-batch input state (staged input and
	// punctuation/taint/miss flags per upstream) as a dense ring of
	// recycled records — see window.go.
	win batchWindow
	replayState
	// nextBatch is the next batch to process, so nextBatch-1 is the
	// progress measure: the last batch fully processed (§VI's progress
	// vector collapses to the batch index under the batch discipline).
	nextBatch     int
	busyUntil     sim.Time
	procScheduled bool

	// ckptBound tracks, per recipient slot, the last batch covered by a
	// downstream checkpoint (noCheckpoint before the first): buffered
	// output up to it can never be requested for replay again.
	ckptBound []int
	// ackBatch is, on a replica, the primary's output progress at the
	// last periodic ack (§V-B): the take-over resend covers only later
	// batches.
	ackBatch int

	procCPU sim.Time
	ckptCPU sim.Time
}

// copyFrom overwrites the state with a copy of src. One struct
// assignment copies the scalars, so a field added later is copied too;
// then each slice, map and window gets its own storage back and src's
// content copied into it, so the two states share nothing but the
// emitted batches' tuples, which are never written again. A state
// without a window ring or a marks map gets one only when src holds a
// live record or a mark.
func (s *taskState) copyFrom(src *taskState, pool *tuplePool) {
	win, rs, bound := s.win, s.replayState, s.ckptBound
	*s = *src
	s.win, s.replayState = win, rs
	s.win.copyFrom(&src.win, pool)
	s.replayState.copyFrom(&src.replayState)
	s.ckptBound = append(bound[:0], src.ckptBound...)
}

// newTaskRuntime builds a runtime in its initial state: live at batch 0
// with no staged input, buffered output, owed input or tentative mark,
// and a new operator or source instance. The initial state is written
// here alone: restart copies the image New records of it.
func newTaskRuntime(e *Engine, id topology.TaskID) *taskRuntime {
	t := e.topo
	task := t.Tasks[id]
	rt := &taskRuntime{
		eng:       e,
		id:        id,
		opIdx:     task.Op,
		taskIndex: task.Index,
		isSource:  t.IsSource(task.Op),
	}
	for _, in := range t.InputsOf(id) {
		for _, sub := range in.Subs {
			rt.upstreams = append(rt.upstreams, sub.From)
		}
	}
	slices.Sort(rt.upstreams)
	rt.upOps = make([]int, len(rt.upstreams))
	for _, in := range t.InputsOf(id) {
		for _, sub := range in.Subs {
			ui, _ := rt.upIdx(sub.From)
			rt.upOps[ui] = in.FromOp
		}
	}

	// Group outgoing substreams into per-operator routes.
	byOp := map[int]*route{}
	var ops []int
	for _, sub := range t.OutputsOf(id) {
		downOp := t.Tasks[sub.To].Op
		r, ok := byOp[downOp]
		if !ok {
			r = &route{downOp: downOp}
			byOp[downOp] = r
			ops = append(ops, downOp)
		}
		r.recipients = append(r.recipients, sub.To)
		w := t.Weight(sub.To)
		r.weights = append(r.weights, w)
		r.weightSum += w
	}
	sort.Ints(ops)
	for _, op := range ops {
		r := byOp[op]
		r.recIdx = make([]int32, len(r.recipients))
		for j, rec := range r.recipients {
			r.recIdx[j] = int32(len(rt.downs))
			rt.downs = append(rt.downs, recipient{id: rec, slot: r.recIdx[j]})
		}
		rt.routes = append(rt.routes, *r)
	}
	slices.SortFunc(rt.downs, func(a, b recipient) int { return cmp.Compare(a.id, b.id) })
	nrec := len(rt.downs)
	rt.emitBuf = make([]Batch, nrec)
	if rt.isSource {
		rt.src = e.sources[rt.opIdx](rt.taskIndex)
	} else {
		rt.udf = e.operators[rt.opIdx](rt.taskIndex)
	}
	rt.win.init(len(rt.upstreams))
	rt.outBuf = make([]replayQueue, nrec)
	rt.tentOut = make(map[int]bool)
	rt.missIn = newOwedSet(len(rt.upstreams))
	rt.ckptBound = make([]int, nrec)
	for s := range rt.ckptBound {
		rt.ckptBound[s] = noCheckpoint
	}
	rt.ackBatch = -1
	return rt
}

// restart re-initialises the runtime for a new life of its task, the
// start of a checkpoint restore or a source-replay restart: it restores
// the task's time-zero primary image (Engine.zero), which holds the
// state newTaskRuntime builds, into the runtime's own storage and
// operator, and bumps the epoch past the failed life's. It keeps what
// a runtime can reuse: the routing, the grown batch window, the
// buffers' backing arrays and the operator or source instance.
func (rt *taskRuntime) restart() {
	epoch := rt.epoch
	rt.restore(&rt.eng.zero[rt.id])
	rt.epoch = epoch + 1
}

// upIdx returns the compact index of an upstream task, and false when
// the task is no upstream of this one.
func (rt *taskRuntime) upIdx(from topology.TaskID) (int32, bool) {
	i, ok := slices.BinarySearch(rt.upstreams, from)
	return int32(i), ok
}

// slotOf returns the slot of a recipient, and false when the task is no
// recipient of this one.
func (rt *taskRuntime) slotOf(down topology.TaskID) (int32, bool) {
	i, ok := slices.BinarySearchFunc(rt.downs, down, func(r recipient, id topology.TaskID) int { return cmp.Compare(r.id, id) })
	if !ok {
		return 0, false
	}
	return rt.downs[i].slot, true
}

// rebase points a runtime (with no open-batch records) at a new next
// batch, keeping the window base in sync.
func (rt *taskRuntime) rebase(next int) {
	rt.nextBatch = next
	rt.win.base = next
}

// receive stages an incoming batch fragment from the upstream with
// compact index ui; duplicates of already processed batches are dropped
// (the dedup that skips replayed and replica-duplicated output, §V-B)
// unless they correct a batch that was closed on fabricated input, in
// which case they trigger an amendment.
func (rt *taskRuntime) receive(ui int32, batch int, content Batch, d delivery) {
	if rt.failed || rt.isSource {
		return
	}
	if batch < rt.nextBatch {
		rt.receiveLate(ui, batch, content, d)
		return
	}
	if d.amend {
		// Amendment delta for a batch still open here: it simply joins
		// the staged input and is processed with the batch. The
		// upstream's taint is deliberately NOT lifted: the amendment may
		// be partial (one per resolved missing input upstream), so
		// closing the batch firm could silently miss a later delta —
		// a conservative never-corrected tentative mark is safer.
		if content.Count > 0 {
			rt.stageInput(rt.win.rec(batch), ui, content)
		}
		rt.tryProcess()
		return
	}
	r := rt.win.peek(batch)
	seen := r != nil && r.punct.test(int(ui))
	// A recorded punctuation means this upstream already delivered the
	// batch in full: later payloads for the same (upstream, batch) are
	// replay duplicates and are dropped — unless the punctuation was
	// fabricated (the data is owed) and the real payload arrives now.
	// Absorbing that payload settles the debt immediately, whether it is
	// firm or still tentative: a repeated resend must not stage it twice.
	if content.Count > 0 && (!seen || r.miss.test(int(ui))) {
		if r == nil {
			r = rt.win.rec(batch)
		}
		rt.stageInput(r, ui, content)
		rt.settleOwed(batch, ui)
	}
	if d.punct {
		if r == nil {
			r = rt.win.rec(batch)
		}
		if !seen {
			if r.punct.set(int(ui)) {
				r.punctCount++
			}
			if d.tent {
				r.taint.set(int(ui))
				if d.fab {
					r.miss.set(int(ui))
				}
			}
		}
		if !d.tent {
			// The real, firm payload arrived before the batch closed
			// (e.g. a recovered upstream resent it after the master had
			// fabricated its punctuation): the input is complete after
			// all, so the taint and the missing mark are lifted.
			r.taint.clear(int(ui))
			r.miss.clear(int(ui))
		}
	}
	rt.tryProcess()
}

// receiveLate handles messages for batches this runtime already
// closed: amendment deltas from upstream corrections, and the late real
// data of batches that were closed on fabricated punctuations. Both are
// reprocessed as amendments, which is how a correction propagates hop
// by hop until it reaches the sinks.
func (rt *taskRuntime) receiveLate(ui int32, batch int, content Batch, d delivery) {
	if len(rt.tentOut) == 0 || !rt.tentOut[batch] {
		return // the batch closed firm here: replayed duplicates are dropped
	}
	if d.amend {
		rt.reprocessAmendment(ui, batch, content)
		return
	}
	if !d.punct || d.tent {
		return // a still-tentative replay cannot correct anything
	}
	if rt.missIn.owes(batch, ui) {
		rt.settleOwed(batch, ui)
		rt.reprocessAmendment(ui, batch, content)
	}
}

// settleOwed clears the owed-input record of (batch, upstream ui) on
// the live runtime AND in the stored checkpoint: once the late data
// has been absorbed or amended, a restore from a pre-correction
// snapshot must not repeat the amendment (the upstream resends the same
// batch on every recovery, and a duplicate amendment would overcount at
// sinks). It runs on every data delivery, so the owed-input lists are
// only searched when they hold a batch at all.
func (rt *taskRuntime) settleOwed(batch int, ui int32) {
	if r := rt.win.peek(batch); r != nil {
		r.miss.clear(int(ui))
	}
	if len(rt.missIn.batches) > 0 {
		rt.missIn.settle(batch, ui)
	}
	if ck := rt.eng.checkpoint(rt.id); ck != nil && len(ck.missIn.batches) > 0 {
		ck.missIn.settle(batch, ui)
	}
}

// stageInput merges one incoming batch fragment into the staged input
// of the record, priming the tuple backing from the engine pool.
func (rt *taskRuntime) stageInput(r *batchRec, ui int32, content Batch) {
	b := &r.staged[ui]
	if b.Tuples == nil && len(content.Tuples) > 0 {
		b.Tuples = rt.eng.tuples.get()
	}
	b.Append(content)
}

// hasPunct reports whether the batch-over punctuation of (batch,
// upstream ui) has been recorded (used by the master's fabrication
// loop).
func (rt *taskRuntime) hasPunct(batch int, ui int32) bool {
	r := rt.win.peek(batch)
	return r != nil && r.punct.test(int(ui))
}

// ready reports whether every upstream punctuation for the batch is in.
func (rt *taskRuntime) ready(batch int) bool {
	if len(rt.upstreams) == 0 {
		return true
	}
	r := rt.win.peek(batch)
	return r != nil && r.punctCount == len(rt.upstreams)
}

// tryProcess schedules processing of the next batch when it is ready.
// A task processes one batch at a time (§V-B): the start waits for
// busyUntil and the cost follows the Config cost model.
func (rt *taskRuntime) tryProcess() {
	if rt.failed || rt.procScheduled || rt.isSource {
		return
	}
	b := rt.nextBatch
	if !rt.ready(b) {
		return
	}
	total := 0
	if r := rt.win.peek(b); r != nil {
		for i := range r.staged {
			total += r.staged[i].Count
		}
	}
	cost := perBatchOverhead + sim.Time(float64(total)/rt.eng.cfg.ProcRate)
	now := rt.eng.clock.Now()
	start := now
	if rt.busyUntil > start {
		start = rt.busyUntil
	}
	rt.busyUntil = start + cost
	rt.procScheduled = true
	pe := rt.eng.procs.get()
	pe.rt, pe.b, pe.cost, pe.epoch = rt, b, cost, rt.epoch
	rt.eng.clock.AtRun(start+cost, pe)
}

// procEvent is the pooled completion event of one scheduled batch. It
// recycles itself on fire; it is never cancelled (the completions of a
// failed or rewound life are fenced by the epoch check), so the pool
// discipline is safe.
type procEvent struct {
	rt    *taskRuntime
	b     int
	cost  sim.Time
	epoch int
}

// Run implements sim.Runner.
func (pe *procEvent) Run() {
	rt, b, cost, epoch := pe.rt, pe.b, pe.cost, pe.epoch
	rt.eng.procs.put(pe)
	if rt.failed || rt.epoch != epoch {
		return
	}
	rt.completeBatch(b, cost)
}

// completeBatch runs the UDF over the staged input of batch b, emits and
// buffers the outputs, and advances progress.
func (rt *taskRuntime) completeBatch(b int, cost sim.Time) {
	rt.procScheduled = false
	rt.procCPU += cost
	r := rt.win.peek(b)
	for ui := range rt.upstreams {
		var in Batch
		if r != nil {
			in = r.staged[ui]
		}
		rt.udf.ProcessBatch(b, rt.upOps[ui], in, rt)
	}
	rt.udf.OnBatchEnd(b, rt)
	// A batch closed with any tentative or fabricated punctuation left
	// standing produces tentative output, whatever the task's distance
	// from the failure: the taint travels with the emitted batches.
	tentative := r != nil && r.taint.any()
	if tentative {
		rt.tentOut[b] = true
	} else if len(rt.tentOut) > 0 {
		delete(rt.tentOut, b) // reprocessed firm (e.g. after a rewind)
	}
	rt.finishEmit(b, tentative)
	// The open-batch miss flags record which upstream inputs are still
	// owed; on a tentative close they are spilled to missIn so they
	// survive the record's release and can be matched against the
	// recovered upstream's late real data to trigger the amendment that
	// corrects this batch.
	if tentative && r != nil && r.miss.any() {
		rt.missIn.add(b, r.miss)
	}
	rt.win.release(b, &rt.eng.tuples)
	rt.nextBatch = b + 1
	if rt.eng.topo.IsSink(rt.opIdx) && rt.eng.replicas[rt.id] != rt {
		rt.eng.recordSinkBatch(rt.id, b, rt.sinkOut, rt.sinkCount, tentative)
	}
	rt.sinkOut = rt.sinkOut[:0]
	rt.sinkCount = 0
	if rt.recovering {
		rt.eng.master.checkRecovered(rt)
	}
	rt.tryProcess()
}

// Emit implements Emitter: route one materialised tuple by key hash.
func (rt *taskRuntime) Emit(t Tuple) {
	if len(rt.routes) == 0 {
		rt.sinkOut = append(rt.sinkOut, t)
		return
	}
	for i := range rt.routes {
		r := &rt.routes[i]
		idx := int(hashKey(t.Key) % uint64(len(r.recipients)))
		b := &rt.emitBuf[r.recIdx[idx]]
		b.Count++
		b.Tuples = append(b.Tuples, t)
	}
}

// EmitCount implements Emitter: distribute n unmaterialised tuples over
// each route proportionally to the recipients' workload weights, with
// deterministic cumulative rounding.
func (rt *taskRuntime) EmitCount(n int) {
	if n <= 0 {
		return
	}
	if len(rt.routes) == 0 {
		rt.sinkCount += n
		return
	}
	for i := range rt.routes {
		r := &rt.routes[i]
		var cum, prevRounded float64
		for j := range r.recipients {
			cum += float64(n) * r.weights[j] / r.weightSum
			rounded := float64(int(cum + 0.5))
			share := int(rounded - prevRounded)
			prevRounded = rounded
			if share > 0 {
				rt.emitBuf[r.recIdx[j]].Count += share
			}
		}
	}
}

// finishEmit buffers the batch outputs and, on a primary, delivers them
// with batch-over punctuations to every downstream task. The tentative
// bit rides on the punctuation so downstream tasks inherit the taint.
// Emit-buffer slots hand their tuple backing off to the output buffer
// and restart empty, so a slot is never aliased across batches.
func (rt *taskRuntime) finishEmit(batch int, tentative bool) {
	primary := rt.eng.replicas[rt.id] != rt
	for i := range rt.routes {
		r := &rt.routes[i]
		for j, rec := range r.recipients {
			s := r.recIdx[j]
			content := rt.emitBuf[s]
			rt.emitBuf[s] = Batch{}
			rt.outBuf[s].put(batch, content)
			if primary {
				rt.eng.deliver(rt.id, recipient{id: rec, slot: s}, batch, content, delivery{punct: true, tent: tentative})
			}
		}
	}
}

// reprocessAmendment re-runs a late input delta of an already-closed
// tentative batch through an operator instance in its initial state and
// emits the result as an amendment. For the engine's linear synthetic
// operators (counts, passthrough, windowed selectivity) the output of
// the delta equals the delta of the outputs, so the amendment exactly
// closes the gap the fabricated input left; for non-linear operators it
// is the standard delta-correction approximation. Reprocessing is
// charged at the normal processing rate.
func (rt *taskRuntime) reprocessAmendment(ui int32, batch int, delta Batch) {
	cost := perBatchOverhead + sim.Time(float64(delta.Count)/rt.eng.cfg.ProcRate)
	now := rt.eng.clock.Now()
	start := max(rt.busyUntil, now)
	rt.busyUntil = start + cost
	ae := rt.eng.amends.get()
	ae.rt, ae.b, ae.fromOp, ae.delta, ae.cost, ae.epoch = rt, batch, rt.upOps[ui], delta, cost, rt.epoch
	rt.eng.clock.AtRun(start+cost, ae)
}

// amendEvent is the pooled completion of one amendment: the delta of
// batch b from operator fromOp, reprocessed on the task's scratch
// operator. Like procEvent it recycles itself on fire and is fenced by
// the epoch. The splice encodes no amendment event, so a scenario never
// splices while one is pending.
type amendEvent struct {
	rt     *taskRuntime
	b      int
	fromOp int
	delta  Batch
	cost   sim.Time
	epoch  int
}

// Run implements sim.Runner.
func (ae *amendEvent) Run() {
	rt, b, fromOp, delta, cost, epoch := ae.rt, ae.b, ae.fromOp, ae.delta, ae.cost, ae.epoch
	ae.delta = Batch{} // drop the tuple reference while pooled
	rt.eng.amends.put(ae)
	if rt.failed || rt.epoch != epoch {
		return
	}
	rt.procCPU += cost
	op := rt.eng.scratchOp(rt.id)
	op.ProcessBatch(b, fromOp, delta, rt)
	op.OnBatchEnd(b, rt)
	rt.finishAmend(b)
}

// finishAmend records or forwards the amendment output of one batch.
// Amendments are delivered to every recipient — even when the delta is
// empty — so the corrected-at mark reaches the sinks of all paths; they
// are not buffered for replay (a later restore replays the original
// tentative output, a documented approximation).
func (rt *taskRuntime) finishAmend(batch int) {
	primary := rt.eng.replicas[rt.id] != rt
	if rt.eng.topo.IsSink(rt.opIdx) && primary {
		rt.eng.recordSinkAmendment(rt.id, batch, rt.sinkOut, rt.sinkCount)
	}
	rt.sinkOut = rt.sinkOut[:0]
	rt.sinkCount = 0
	for i := range rt.routes {
		r := &rt.routes[i]
		for j, rec := range r.recipients {
			s := r.recIdx[j]
			content := rt.emitBuf[s]
			rt.emitBuf[s] = Batch{}
			if primary {
				rt.eng.deliver(rt.id, recipient{id: rec, slot: s}, batch, content, delivery{amend: true})
			}
		}
	}
}

// emitSourceBatch generates and sends one source batch (the source task
// path; no UDF).
func (rt *taskRuntime) emitSourceBatch(b int) {
	if rt.failed || !rt.isSource || b < rt.nextBatch {
		return
	}
	content := rt.src.BatchAt(b)
	if len(content.Tuples) > 0 {
		for _, t := range content.Tuples {
			rt.Emit(t)
		}
		if extra := content.Count - len(content.Tuples); extra > 0 {
			rt.EmitCount(extra)
		}
	} else {
		rt.EmitCount(content.Count)
	}
	rt.finishEmit(b, false) // source data is always firm
	rt.nextBatch = b + 1
	if rt.recovering {
		rt.eng.master.checkRecovered(rt)
	}
}

// catchUpSource regenerates all batches from nextBatch through target
// (inclusive), used after source recovery and for source replay.
func (rt *taskRuntime) catchUpSource(target int) {
	for b := rt.nextBatch; b <= target; b++ {
		rt.emitSourceBatch(b)
	}
}

// resendAll redelivers every buffered output batch to the downstream
// tasks (buffer replay after a restore; duplicates are dropped by the
// receivers).
func (rt *taskRuntime) resendAll() { rt.resendSince(-1) }

// resendSince redelivers buffered output batches strictly after the
// given batch to the downstream tasks, in ascending downstream task and
// batch order — resendAll, and the take-over resend of an activated
// replica. The cost is charged at resendRate.
func (rt *taskRuntime) resendSince(since int) {
	if rt.failed {
		return
	}
	total := 0
	for _, d := range rt.downs {
		q := &rt.outBuf[d.slot]
		for i := max(since+1-q.first, 0); i < len(q.items); i++ {
			content := q.items[i]
			if content.Count < 0 {
				continue // a gap
			}
			b := q.first + i
			rt.eng.deliver(rt.id, d, b, content, delivery{punct: true, tent: rt.tentOut[b]})
			total += content.Count
		}
	}
	if total > 0 {
		rt.busyUntil = max(rt.busyUntil, rt.eng.clock.Now()) + sim.Time(float64(total)/resendRate)
	}
}

// trimFor drops buffered output for one downstream task up to and
// including the given batch (invoked when the downstream checkpoints,
// §II-B) and records the checkpoint bound.
func (rt *taskRuntime) trimFor(down topology.TaskID, upTo int) {
	s, ok := rt.slotOf(down)
	if !ok {
		return
	}
	rt.ckptBound[s] = max(rt.ckptBound[s], upTo)
	rt.outBuf[s].trim(upTo)
}

// trimAll drops all buffered output up to and including the given batch
// unconditionally. Only safe when downstream replay can never reach back
// that far (pure-active deployments without checkpoints).
func (rt *taskRuntime) trimAll(upTo int) {
	for s := range rt.outBuf {
		rt.outBuf[s].trim(upTo)
	}
}

// ackAndTrim is the periodic primary->replica progress ack (§V-B). The
// replica records the ack (bounding the take-over resend) and trims its
// buffer, retaining everything a downstream checkpoint recovery could
// still request: per downstream the trim is bounded by the downstream's
// last checkpoint. Without checkpointing in the deployment, downstream
// recovery never replays, so the ack alone bounds retention.
func (rt *taskRuntime) ackAndTrim(ack int, checkpointing bool) {
	rt.ackBatch = ack
	if !checkpointing {
		rt.trimAll(ack)
		return
	}
	for s, bound := range rt.ckptBound {
		if bound != noCheckpoint {
			rt.outBuf[s].trim(min(ack, bound))
		}
	}
}

// resetTo rewinds a live task to re-process from the given batch with
// fresh state (Storm-style source replay through live ancestors).
func (rt *taskRuntime) resetTo(batch int) {
	rt.epoch++
	rt.procScheduled = false
	rt.win.resetTo(batch, &rt.eng.tuples)
	// Batches at or above the rewind point are reprocessed from scratch;
	// older tentative batches stay closed, so their owed-input records
	// and tentative marks must survive for the correction layer.
	rt.missIn.dropFrom(batch)
	for b := range rt.tentOut {
		if b >= batch {
			delete(rt.tentOut, b)
		}
	}
	rt.nextBatch = batch
	if rt.udf != nil {
		// Restore(nil) resets the operator to its initial state.
		_ = rt.udf.Restore(nil)
	}
}

// snapshotState appends the checkpoint state of this task to buf and
// returns it with the number of modelled tuples it counts. A source's
// state is its next batch number.
func (rt *taskRuntime) snapshotState(buf []byte) ([]byte, int) {
	if rt.isSource {
		return binary.LittleEndian.AppendUint64(buf, uint64(rt.nextBatch)), 0
	}
	return rt.udf.Snapshot(buf)
}

func hashKey(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return h.Sum64()
}

// decodeInt decodes the 8-byte checkpoint state of a source task. A
// short payload is a corrupt or truncated checkpoint: restoring it
// silently as batch 0 would disguise data loss as a cold start, so it
// is reported as an explicit error.
func decodeInt(b []byte) (int, error) {
	if len(b) < 8 {
		return 0, fmt.Errorf("engine: source checkpoint payload truncated: %d bytes, want 8", len(b))
	}
	return int(binary.LittleEndian.Uint64(b)), nil
}
