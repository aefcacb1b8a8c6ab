package engine

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"repro/internal/sim"
	"repro/internal/topology"
)

// This file holds the re-convergence splice. A failure scenario that
// recovers ends up back in the failure-free run's state, and from then
// on it repeats that run exactly. RecordTrajectory records the
// failure-free run once, as a digest of its state at every batch
// boundary; RunSpliced runs a scenario, compares it with the trajectory
// at every batch boundary after its last failure, and on a match
// appends the failure-free run's remaining sink ledger and stops.
//
// The compared state is everything that can still reach a sink in a
// failure-free future: per primary task its progress, busy time,
// operator state, open batches and output buffers, and the pending
// events that act on primaries. The rest is inert without a further
// failure. Replicas never deliver or record; stale completions are
// fenced by their epoch; the checkpoint store, the owed-input and
// tentative marks of closed batches and the checkpoint bounds are read
// only by restores, replays and amendments; the tuple and CPU counters
// feed no decision; a source's batch window is never used. DESIGN.md
// ("Re-convergence splice") states each exclusion, and the table in
// schema_test.go classifies every taskState field as compared by
// encodeTask, checked by converged or excluded, and checks encodeTask
// against it.

// digest is a 128-bit state digest: the first half of a SHA-256.
type digest [16]byte

// Trajectory is the failure-free run of an engine from the instant it
// was recorded at to a horizon: a digest of the compared state at every
// batch boundary in between, and the run's sink ledger, sink volume and
// task progress at the horizon. It is immutable once recorded, so the
// engines of one campaign call share it.
type Trajectory struct {
	topo    *topology.Topology
	cfg     Config
	horizon sim.Time
	points  []trajPoint
	// tasks holds the per-task digests of every point: point p's
	// digest of task id is tasks[p*len(progress)+id].
	tasks []digest

	// At the horizon: the sink volume, every task's progress, each sink
	// task's ledger from the batch it was at when recording started
	// (acct[id] starts at batch acctFrom[id]; nil for other tasks), and
	// the sink records after the first sinksFrom.
	volume    int
	progress  []int
	sinkIDs   []topology.TaskID
	acct      [][]sinkBatchAcct
	acctFrom  []int
	sinks     []SinkRecord
	sinksFrom int
}

// trajPoint is the failure-free state at one batch boundary.
type trajPoint struct {
	at           sim.Time
	currentBatch int
	events       digest
	records      int  // sink records so far
	ok           bool // the state was encodable (see encodeTask)
}

// SinkTupleCount returns the failure-free sink volume at the horizon.
func (tr *Trajectory) SinkTupleCount() int { return tr.volume }

// RecordTrajectory runs the engine failure-free to the horizon,
// recording the digest of its state at every batch boundary on the way
// (see Trajectory). It fails once a failure has been scheduled, like
// Mark. The engine ends at the horizon, as after Run(horizon); a
// campaign records from a freshly marked engine and Resets it after.
func (e *Engine) RecordTrajectory(horizon sim.Time) (*Trajectory, error) {
	if e.failing {
		return nil, errors.New("engine: RecordTrajectory after a failure was scheduled; a trajectory is failure-free")
	}
	if e.spliced != nil {
		return nil, errors.New("engine: RecordTrajectory after RunSpliced stopped early; Reset the engine first")
	}
	n := len(e.tasks)
	tr := &Trajectory{
		topo:      e.topo,
		cfg:       e.cfg,
		horizon:   horizon,
		progress:  make([]int, n),
		acct:      make([][]sinkBatchAcct, n),
		acctFrom:  make([]int, n),
		sinksFrom: len(e.sinks),
	}
	for id, rt := range e.tasks {
		if e.topo.IsSink(rt.opIdx) {
			tr.sinkIDs = append(tr.sinkIDs, topology.TaskID(id))
			tr.acctFrom[id] = rt.nextBatch
		}
	}
	first := e.firstBoundary()
	last := first
	for boundary(last) < horizon {
		last++
	}
	tr.points = make([]trajPoint, 0, last-first)
	tr.tasks = make([]digest, 0, (last-first)*n)
	for b := first; b < last; b++ {
		at := boundary(b)
		e.clock.RunUntil(at)
		pt := trajPoint{at: at, currentBatch: e.currentBatch, records: len(e.sinks)}
		pt.events, pt.ok = e.digestOf(n)
		for id := range n {
			d, ok := e.digestOf(id)
			tr.tasks = append(tr.tasks, d)
			pt.ok = pt.ok && ok
		}
		tr.points = append(tr.points, pt)
	}
	e.clock.RunUntil(horizon)
	tr.volume = e.SinkTupleCount()
	for id, rt := range e.tasks {
		tr.progress[id] = rt.nextBatch - 1
	}
	for _, id := range tr.sinkIDs {
		if acct := e.sinkAcct[id]; len(acct) > tr.acctFrom[id] {
			tr.acct[id] = slices.Clone(acct[tr.acctFrom[id]:])
		}
	}
	tr.sinks = slices.Clone(e.sinks[tr.sinksFrom:])
	return tr, nil
}

// RunSpliced runs the engine to the trajectory's horizon like Run, but
// stops early once the engine has re-converged to the failure-free run:
// at every batch boundary at or after the latest scheduled failure, with
// no failure pending at the master, it compares its state with the
// trajectory's, and on a full match it appends the trajectory's sink
// ledger from there on and stops. It returns the time it stopped at.
//
// After an early stop SinkTupleCount, SinkRecords, AccuracyStats,
// RecoveryStats and TaskProgress report exactly what Run(horizon)
// reports; CPUStats covers the simulated prefix only. The engine must
// be Reset before it runs again. The trajectory serves the engines of
// its own Setup, whose failure-free runs are all the same run: an
// engine with another topology or Config never stops early.
func (e *Engine) RunSpliced(tr *Trajectory) sim.Time {
	if tr.topo != e.topo || tr.cfg != e.cfg {
		e.Run(tr.horizon)
		return tr.horizon
	}
	e.witness = 0
	for p := range tr.points {
		pt := &tr.points[p]
		if pt.at <= e.clock.Now() {
			continue
		}
		e.Run(pt.at)
		if pt.ok && pt.at >= e.lastFailure && e.converged(tr, p) {
			e.splice(tr, pt)
			return pt.at
		}
	}
	e.Run(tr.horizon)
	return tr.horizon
}

// boundary returns the instant of batch b's tick. It is computed from
// b, not added up interval by interval, so a non-integer interval
// accumulates no rounding.
func boundary(b int) sim.Time { return sim.Time(float64(b+1)) * batchInterval }

// firstBoundary returns the first batch whose tick lies after now.
func (e *Engine) firstBoundary() int {
	b := max(int(float64(e.clock.Now()/batchInterval))-1, 0)
	for boundary(b) <= e.clock.Now() {
		b++
	}
	return b
}

// converged reports whether the engine's compared state equals the
// trajectory's at point p. It checks the cheap conditions first, then
// the part that differed at the previous check (the witness), then the
// other tasks and the pending events, stopping at the first difference.
func (e *Engine) converged(tr *Trajectory, p int) bool {
	pt := &tr.points[p]
	if len(e.master.pending) > 0 || e.currentBatch != pt.currentBatch {
		return false
	}
	for _, rt := range e.tasks {
		if rt.failed || rt.recovering {
			return false
		}
	}
	// A sink that would record a batch it recorded already deduplicates
	// it, unlike the failure-free run.
	for _, id := range tr.sinkIDs {
		acct := e.sinkAcct[id]
		for b := e.tasks[id].nextBatch; b < len(acct); b++ {
			if acct[b].recorded {
				return false
			}
		}
	}
	if !e.matches(tr, p, e.witness) {
		return false
	}
	for part := 0; part <= len(e.tasks); part++ {
		if part != e.witness && !e.matches(tr, p, part) {
			e.witness = part
			return false
		}
	}
	return true
}

// matches reports whether one part of the compared state (see
// digestOf) equals the trajectory's at point p.
func (e *Engine) matches(tr *Trajectory, p, part int) bool {
	d, ok := e.digestOf(part)
	if n := len(e.tasks); part < n {
		return ok && d == tr.tasks[p*n+part]
	}
	return ok && d == tr.points[p].events
}

// digestOf digests one part of the compared state: task id's state for
// a part below the task count, the pending events for the part equal
// to it. ok is false when the part is not encodable, so it never
// matches.
func (e *Engine) digestOf(part int) (d digest, ok bool) {
	if part < len(e.tasks) {
		e.enc, ok = e.encodeTask(e.enc[:0], e.tasks[part])
	} else {
		e.enc, ok = e.encodeEvents(e.enc[:0])
	}
	if ok {
		sum := sha256.Sum256(e.enc)
		copy(d[:], sum[:])
	}
	return d, ok
}

// splice appends the trajectory's ledger after point pt: the sink
// records the failure-free run added from there, and every sink task's
// ledger entries from its next batch on.
func (e *Engine) splice(tr *Trajectory, pt *trajPoint) {
	e.sinks = append(e.sinks, tr.sinks[pt.records-tr.sinksFrom:]...)
	for _, id := range tr.sinkIDs {
		nb := e.tasks[id].nextBatch
		acct := e.sinkAcct[id]
		if len(acct) > nb {
			acct = acct[:nb] // unrecorded: converged checked
		}
		for len(acct) < nb {
			acct = append(acct, sinkBatchAcct{})
		}
		if k := nb - tr.acctFrom[id]; k < len(tr.acct[id]) {
			acct = append(acct, tr.acct[id][k:]...)
		}
		e.sinkAcct[id] = acct
	}
	e.spliced = tr
}

// encodeTask appends the compared state of primary task rt to buf:
// progress, busy time (only max(busyUntil, now) matters: every reader
// takes it), whether a completion is scheduled, the operator snapshot,
// the open batch records and the output buffers. ok is false when the
// state holds materialised tuples, whose values the encoding does not
// cover.
func (e *Engine) encodeTask(buf []byte, rt *taskRuntime) ([]byte, bool) {
	buf = appendInt(buf, rt.nextBatch)
	buf = appendTime(buf, max(rt.busyUntil, e.clock.Now()))
	buf = appendBool(buf, rt.procScheduled)
	if !rt.isSource {
		// A separate buffer: Snapshot's contract promises no more than
		// the state it returns.
		e.snap, _ = rt.udf.Snapshot(e.snap[:0])
		buf = appendInt(buf, len(e.snap))
		buf = append(buf, e.snap...)
		w := &rt.win
		for b := w.base; b < w.base+len(w.recs); b++ {
			r := w.peek(b)
			if r == nil {
				continue
			}
			buf = appendInt(buf, b)
			buf = appendInt(buf, r.punctCount)
			for i := range r.staged {
				if len(r.staged[i].Tuples) > 0 {
					return buf, false
				}
				buf = appendInt(buf, r.staged[i].Count)
			}
			for _, bits := range [...]ubits{r.punct, r.taint, r.miss} {
				for _, word := range bits {
					buf = binary.AppendUvarint(buf, word)
				}
			}
		}
		buf = appendInt(buf, -1) // no batch is negative
	}
	for s := range rt.outBuf {
		q := &rt.outBuf[s]
		buf = appendInt(buf, len(q.items))
		if len(q.items) > 0 {
			buf = appendInt(buf, q.first)
		}
		for _, c := range q.items {
			if len(c.Tuples) > 0 {
				return buf, false
			}
			buf = appendInt(buf, c.Count)
		}
	}
	return buf, true
}

// Event kinds of the events encoding.
const (
	evDelivery = iota
	evCompletion
	evTrim
	evTick
	evHeartbeat
	evCheckpoint
)

// encodeEvents appends the pending events that can act on a primary
// task to buf, in firing order, without their sequence numbers: the
// order is what decides same-instant ties, and events scheduled later
// are numbered after all of them in any run. Replica acks, and the
// completions of replicas and of failed or rewound lives, act on no
// primary and are left out. ok is false when a one-off event (a failure, an
// activation, a checkpoint install or its poll, an amendment) is
// pending or a delivery carries materialised tuples.
func (e *Engine) encodeEvents(buf []byte) ([]byte, bool) {
	evs, _ := e.clock.AppendPending(e.pend[:0])
	slices.SortFunc(evs, func(a, b sim.Event) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	buf, ok := appendEvents(buf, e.tasks, evs)
	clear(evs) // retain no runner
	e.pend = evs[:0]
	return buf, ok
}

// appendEvents appends the encoding of the sorted events evs to buf
// (see encodeEvents); tasks are the current primaries.
func appendEvents(buf []byte, tasks []*taskRuntime, evs []sim.Event) ([]byte, bool) {
	for _, ev := range evs {
		switch r := ev.Run.(type) {
		case *deliveryEvent:
			if len(r.content.Tuples) > 0 {
				return buf, false
			}
			buf = appendEvent(buf, evDelivery, ev.At)
			buf = appendInt(buf, int(r.to))
			buf = appendInt(buf, int(r.ui))
			buf = appendInt(buf, r.batch)
			buf = appendInt(buf, r.content.Count)
			buf = append(buf, flagBits(r.d))
		case *procEvent:
			if rt := r.rt; tasks[rt.id] == rt && !rt.failed && rt.epoch == r.epoch {
				buf = appendEvent(buf, evCompletion, ev.At)
				buf = appendInt(buf, int(rt.id))
				buf = appendInt(buf, r.b)
				buf = appendTime(buf, r.cost)
			}
		case *trimEvent:
			buf = appendEvent(buf, evTrim, ev.At)
			buf = appendInt(buf, int(r.up))
			buf = appendInt(buf, int(r.down))
			buf = appendInt(buf, r.ck)
		case *batchTick:
			buf = appendEvent(buf, evTick, ev.At)
			buf = appendInt(buf, r.b)
		case *heartbeatTimer:
			buf = appendEvent(buf, evHeartbeat, ev.At)
		case *checkpointTimer:
			buf = appendEvent(buf, evCheckpoint, ev.At)
			buf = appendInt(buf, int(r.id))
		case *replicaAck:
		default:
			return buf, false
		}
	}
	return buf, true
}

func appendEvent(buf []byte, kind byte, at sim.Time) []byte {
	return appendTime(append(buf, kind), at)
}

func appendInt(buf []byte, v int) []byte {
	return binary.AppendVarint(buf, int64(v))
}

func appendTime(buf []byte, t sim.Time) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(t)))
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func flagBits(d delivery) byte {
	var f byte
	for i, set := range [...]bool{d.punct, d.tent, d.fab, d.amend} {
		if set {
			f |= 1 << i
		}
	}
	return f
}
