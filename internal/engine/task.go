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

// taskRuntime is one incarnation of a task (primary or active replica).
// A task that fails and recovers gets a fresh incarnation; stale events
// of the old incarnation are fenced by the failed flag and the epoch
// counter.
type taskRuntime struct {
	eng       *Engine
	id        topology.TaskID
	opIdx     int
	taskIndex int
	isSource  bool
	src       SourceFunc
	udf       OperatorFunc
	isReplica bool
	failed    bool
	// recovering is set while the incarnation works to reach the failed
	// predecessor's progress.
	recovering bool
	// promoted marks a primary incarnation that started life as an
	// active replica: it runs on the standby node of the cluster's
	// replica placement, not on the task's primary placement, so node
	// failures must check that host instead.
	promoted bool
	epoch    int

	// upstreams is sorted by task ID; an upstream's position in it is
	// its compact index into upOps, the window's per-batch state and
	// tupleProgress (see upIdx). upOps holds the upstream operator per
	// compact index.
	upstreams []topology.TaskID
	upOps     []int
	routes    []route
	// downs lists every recipient with its slot, sorted by task ID: the
	// replay order of resendSince and the lookup of slotOf.
	downs []recipient

	// win holds the per-open-batch input state (staged input and
	// punctuation/taint/miss flags per upstream) as a dense ring of
	// recycled records — see window.go.
	win batchWindow
	// missIn records, per closed batch and upstream, a master-fabricated
	// punctuation whose real data never arrived: the input is owed.
	// Open-batch miss flags live in the window; they are spilled here
	// when a batch closes tentative, surviving the close so that the
	// recovered upstream's late real data can be matched and reprocessed
	// as an amendment.
	missIn map[int]map[topology.TaskID]bool
	// tentOut marks the batches this incarnation closed (and emitted)
	// tentative. Amendments are only accepted for batches in tentOut,
	// and replayed buffered output re-delivers the taint.
	tentOut   map[int]bool
	nextBatch int
	// processedBatch is the progress measure: the last batch fully
	// processed (§VI's progress vector collapses to the batch index
	// under the batch discipline).
	processedBatch int
	busyUntil      sim.Time
	procScheduled  bool

	// outBuf buffers emitted batches per recipient slot for replay
	// (§II-B); trimmed when the downstream checkpoints.
	outBuf []replayQueue
	// ckptBound tracks, per recipient slot, the last batch covered by a
	// downstream checkpoint (noCheckpoint before the first): buffered
	// output up to it can never be requested for replay again.
	ckptBound []int
	// ackBatch is, on a replica, the primary's output progress at the
	// last periodic ack (§V-B): the take-over resend covers only later
	// batches.
	ackBatch int
	// tupleProgress counts processed tuples per compact upstream index
	// (auxiliary fine-grained progress, used in tests). A source task
	// has a single slot counting its own generated tuples.
	tupleProgress []int64

	procCPU sim.Time
	ckptCPU sim.Time

	// emit staging during batch processing: one slot per downstream
	// recipient in route order, reused across batches (the tuple
	// backing is handed off to outBuf at finishEmit, so slots restart
	// empty each batch).
	emitBuf   []Batch
	sinkOut   []Tuple
	sinkCount int // unmaterialised tuples emitted at a sink this batch
}

func newTaskRuntime(e *Engine, id topology.TaskID, isReplica bool) *taskRuntime {
	t := e.topo
	task := t.Tasks[id]
	rt := &taskRuntime{
		eng:       e,
		id:        id,
		opIdx:     task.Op,
		taskIndex: task.Index,
		isSource:  t.IsSource(task.Op),
		isReplica: isReplica,
		missIn:    make(map[int]map[topology.TaskID]bool),
		tentOut:   make(map[int]bool),
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
	rt.win.init(len(rt.upstreams))

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
	rt.outBuf = make([]replayQueue, nrec)
	rt.ckptBound = make([]int, nrec)
	for i := range rt.ckptBound {
		rt.ckptBound[i] = noCheckpoint
	}

	if rt.isSource {
		rt.tupleProgress = make([]int64, 1)
	} else {
		rt.tupleProgress = make([]int64, len(rt.upstreams))
	}
	rt.processedBatch = -1
	rt.ackBatch = -1
	rt.instantiate()
	return rt
}

// instantiate gives the runtime a fresh operator or source instance
// from its factory.
func (rt *taskRuntime) instantiate() {
	e := rt.eng
	if rt.isSource {
		rt.src = e.sources[rt.opIdx](rt.taskIndex)
	} else {
		rt.udf = e.operators[rt.opIdx](rt.taskIndex)
	}
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
	rt.processedBatch = next - 1
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

// receiveLate handles messages for batches this incarnation already
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
	if miss := rt.missIn[batch]; miss[rt.upstreams[ui]] {
		rt.settleOwed(batch, ui)
		rt.reprocessAmendment(ui, batch, content)
	}
}

// settleOwed clears the owed-input record of (batch, upstream ui) on
// the live incarnation AND in the stored checkpoint: once the late data
// has been absorbed or amended, a restore from a pre-correction
// snapshot must not repeat the amendment (the upstream resends the same
// batch on every recovery, and a duplicate amendment would overcount at
// sinks). It runs on every data delivery, so the maps are only looked
// into when they hold a record at all.
func (rt *taskRuntime) settleOwed(batch int, ui int32) {
	if r := rt.win.peek(batch); r != nil {
		r.miss.clear(int(ui))
	}
	from := rt.upstreams[ui]
	if len(rt.missIn) > 0 {
		clearIn(rt.missIn, batch, from)
	}
	if ck := rt.eng.store[rt.id]; ck != nil && len(ck.missIn) > 0 {
		clearIn(ck.missIn, batch, from)
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

func markIn(m map[int]map[topology.TaskID]bool, batch int, from topology.TaskID) {
	s := m[batch]
	if s == nil {
		s = make(map[topology.TaskID]bool)
		m[batch] = s
	}
	s[from] = true
}

func clearIn(m map[int]map[topology.TaskID]bool, batch int, from topology.TaskID) {
	if s := m[batch]; s != nil {
		delete(s, from)
		if len(s) == 0 {
			delete(m, batch)
		}
	}
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
	cost := rt.eng.cfg.PerBatchOverhead + sim.Time(float64(total)/rt.eng.cfg.ProcRate)
	now := rt.eng.clock.Now()
	start := now
	if rt.busyUntil > start {
		start = rt.busyUntil
	}
	rt.busyUntil = start + cost
	rt.procScheduled = true
	pe := rt.eng.getProcEvent()
	pe.rt, pe.b, pe.cost, pe.epoch = rt, b, cost, rt.epoch
	rt.eng.clock.AtRun(start+cost, pe)
}

// procEvent is the pooled completion event of one scheduled batch. It
// recycles itself on fire; it is never cancelled (stale incarnations
// are fenced by the epoch check), so the pool discipline is safe.
type procEvent struct {
	rt    *taskRuntime
	b     int
	cost  sim.Time
	epoch int
}

// Run implements sim.Runner.
func (pe *procEvent) Run() {
	rt, b, cost, epoch := pe.rt, pe.b, pe.cost, pe.epoch
	rt.eng.putProcEvent(pe)
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
		rt.tupleProgress[ui] += int64(in.Count)
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
	// owed; on a tentative close they are spilled to the missIn map so
	// they survive the record's release and can be matched against the
	// recovered upstream's late real data to trigger the amendment that
	// corrects this batch.
	if tentative && r != nil && r.miss.any() {
		for ui, u := range rt.upstreams {
			if r.miss.test(ui) {
				markIn(rt.missIn, b, u)
			}
		}
	}
	rt.win.release(b, &rt.eng.tuples)
	rt.nextBatch = b + 1
	rt.processedBatch = b
	if rt.eng.topo.IsSink(rt.opIdx) && !rt.isReplica {
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
	for i := range rt.routes {
		r := &rt.routes[i]
		for j, rec := range r.recipients {
			s := r.recIdx[j]
			content := rt.emitBuf[s]
			rt.emitBuf[s] = Batch{}
			rt.outBuf[s].put(batch, content)
			if !rt.isReplica {
				rt.eng.deliver(rt.id, recipient{id: rec, slot: s}, batch, content, delivery{punct: true, tent: tentative})
			}
		}
	}
}

// reprocessAmendment re-runs a late input delta of an already-closed
// tentative batch through a fresh operator instance and emits the
// result as an amendment. For the engine's linear synthetic operators
// (counts, passthrough, windowed selectivity) the output of the delta
// equals the delta of the outputs, so the amendment exactly closes the
// gap the fabricated input left; for non-linear operators it is the
// standard delta-correction approximation. Reprocessing is charged at
// the normal processing rate.
func (rt *taskRuntime) reprocessAmendment(ui int32, batch int, delta Batch) {
	cost := rt.eng.cfg.PerBatchOverhead + sim.Time(float64(delta.Count)/rt.eng.cfg.ProcRate)
	now := rt.eng.clock.Now()
	start := maxTime(rt.busyUntil, now)
	rt.busyUntil = start + cost
	epoch := rt.epoch
	fromOp := rt.upOps[ui]
	rt.eng.clock.At(start+cost, func() {
		if rt.failed || rt.epoch != epoch {
			return
		}
		rt.procCPU += cost
		op := rt.eng.operators[rt.opIdx](rt.taskIndex)
		op.ProcessBatch(batch, fromOp, delta, rt)
		op.OnBatchEnd(batch, rt)
		rt.finishAmend(batch)
	})
}

// finishAmend records or forwards the amendment output of one batch.
// Amendments are delivered to every recipient — even when the delta is
// empty — so the corrected-at mark reaches the sinks of all paths; they
// are not buffered for replay (a later restore replays the original
// tentative output, a documented approximation).
func (rt *taskRuntime) finishAmend(batch int) {
	if rt.eng.topo.IsSink(rt.opIdx) && !rt.isReplica {
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
			if !rt.isReplica {
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
	rt.tupleProgress[0] += int64(content.Count)
	rt.nextBatch = b + 1
	rt.processedBatch = b
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
// replica. The cost is charged at ResendRate.
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
		rt.busyUntil = maxTime(rt.busyUntil, rt.eng.clock.Now()) + sim.Time(float64(total)/rt.eng.cfg.ResendRate)
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
	for b := range rt.missIn {
		if b >= batch {
			delete(rt.missIn, b)
		}
	}
	for b := range rt.tentOut {
		if b >= batch {
			delete(rt.tentOut, b)
		}
	}
	rt.nextBatch = batch
	rt.processedBatch = batch - 1
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

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

func sortIDs(ids []topology.TaskID) { slices.Sort(ids) }
