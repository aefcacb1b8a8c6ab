package engine

import (
	"cmp"
	"slices"

	"repro/internal/sim"
	"repro/internal/topology"
)

// RecoveryStat records the lifecycle of one task failure. Latency is
// measured from detection to progress catch-up, exactly as in §VI:
// "the time interval between the moment that the failure is detected
// and the instant when the failed task is recovered to its processing
// progress before failure".
type RecoveryStat struct {
	Task        topology.TaskID
	Strategy    Strategy
	FailedAt    sim.Time
	DetectedAt  sim.Time
	RecoveredAt sim.Time
	Recovered   bool
}

// Latency returns the recovery latency (detection to catch-up).
func (r RecoveryStat) Latency() sim.Time {
	if !r.Recovered {
		return -1
	}
	return r.RecoveredAt - r.DetectedAt
}

// master models the Storm master node: failure detection via heartbeats,
// recovery orchestration per the PPA replication plan, and fabrication
// of batch-over punctuations for tentative outputs (§V-A, §V-B).
type master struct {
	eng *Engine
	// failures tracked per task
	pending map[topology.TaskID]*failure
	done    []RecoveryStat
}

type failure struct {
	stat RecoveryStat
	// preFailProgress is the progress vector captured at failure time
	// (the batch index, which under the batch discipline determines the
	// per-input-stream tuple sequence numbers).
	preFailProgress int
	detected        bool
}

func newMaster(e *Engine) *master {
	return &master{eng: e, pending: make(map[topology.TaskID]*failure)}
}

// reset clears all failure bookkeeping (Engine.Reset).
func (m *master) reset() {
	clear(m.pending)
	m.done = m.done[:0]
}

// onFailure captures the failed task's progress; detection happens at
// the next heartbeat.
func (m *master) onFailure(id topology.TaskID, rt *taskRuntime) {
	m.pending[id] = &failure{
		stat: RecoveryStat{
			Task:     id,
			Strategy: m.eng.strategy[id],
			FailedAt: m.eng.clock.Now(),
		},
		preFailProgress: rt.processedBatch,
	}
}

// heartbeat detects failed tasks and starts their recovery.
func (m *master) heartbeat() {
	now := m.eng.clock.Now()
	for _, id := range m.pendingIDs() {
		f := m.pending[id]
		if f.detected {
			continue
		}
		f.detected = true
		f.stat.DetectedAt = now
		m.recover(id, f)
	}
}

// pendingIDs returns the tasks with a tracked failure, sorted; nil (and
// no allocation) on the failure-free path every batch tick takes.
func (m *master) pendingIDs() []topology.TaskID {
	if len(m.pending) == 0 {
		return nil
	}
	ids := make([]topology.TaskID, 0, len(m.pending))
	for id := range m.pending {
		ids = append(ids, id)
	}
	sortIDs(ids)
	return ids
}

// recover dispatches on the task's fault-tolerance strategy.
func (m *master) recover(id topology.TaskID, f *failure) {
	switch m.eng.strategy[id] {
	case StrategyActive:
		m.recoverActive(id, f)
	case StrategySourceReplay:
		m.recoverSourceReplay(id, f)
	case StrategyNone:
		// Unrecoverable within the experiment horizon: fabrication
		// continues, the task stays down.
	default:
		m.recoverCheckpoint(id, f)
	}
}

// recoverActive promotes the task's replica: outputs on, buffered output
// resent to the downstream tasks (which deduplicate by batch), §V-B.
func (m *master) recoverActive(id topology.TaskID, f *failure) {
	e := m.eng
	rep := e.replicas[id]
	if rep == nil || rep.failed {
		// No usable replica (not planned, or standby failed): fall back
		// to checkpoint recovery.
		m.recoverCheckpoint(id, f)
		return
	}
	e.clock.After(e.cfg.ReplicaActivateCost, func() {
		rep.isReplica = false
		rep.recovering = true
		rep.promoted = true
		e.tasks[id] = rep
		e.replicas[id] = nil
		if rep.isSource && e.cfg.CheckpointInterval > 0 {
			// A source replica is driven by no one: it holds no generated
			// batches. Rewind to the oldest batch any downstream could
			// still request on recovery — its last checkpoint (ckptBound,
			// kept fresh by checkpoint trims), or batch 0 for a downstream
			// that never checkpointed and would cold-restart — and
			// regenerate. Without checkpointing there is nothing
			// downstream could replay, so no regeneration is needed.
			// Regeneration costs no virtual time: the promoted source is
			// caught up immediately.
			from := 0
			for i, b := range rep.ckptBound {
				if b == noCheckpoint {
					from = 0
					break
				}
				if i == 0 || b+1 < from {
					from = b + 1
				}
			}
			rep.rebase(from)
			rep.catchUpSource(e.currentBatch)
		}
		// Resend the output the failed primary may not have delivered:
		// everything since the last progress ack. Older buffered batches
		// stay available for downstream checkpoint replay.
		rep.resendSince(rep.ackBatch)
		// The replica may already be caught up; check both now and when
		// its resend work drains.
		m.checkRecovered(rep)
		if !m.isDone(id) {
			e.clock.At(maxTime(rep.busyUntil, e.clock.Now()), func() { m.checkRecovered(rep) })
		}
	})
}

// recoverCheckpoint restores the task from its latest checkpoint on a
// standby node and replays the upstream output buffers (§V-B Passive
// Replication).
func (m *master) recoverCheckpoint(id topology.TaskID, f *failure) {
	e := m.eng
	ck := e.store[id]
	var restoreCost sim.Time
	if ck != nil {
		restoreCost = e.cfg.RestoreFixed + sim.Time(float64(ck.bytes)/e.cfg.RestoreByteRate)
	} else {
		// No checkpoint yet: cold restart reprocesses from batch 0.
		restoreCost = e.cfg.RestoreFixed
	}
	e.clock.After(restoreCost, func() { m.installCheckpoint(id, ck) })
}

// installCheckpoint finishes a checkpoint recovery once the paper's
// synchronisation condition holds (§V-B): "if a task and its upstream
// neighbouring task are failed simultaneously and its checkpoint is made
// later than its upstream peers', the recovery of the downstream task
// can only be started after its upstream peer has caught up with the
// processing progress". Under a correlated failure this serialises the
// recovery waves level by level — the main reason checkpoint recovery
// of a correlated failure is so much slower than of a single failure.
func (m *master) installCheckpoint(id topology.TaskID, ck *checkpointData) {
	e := m.eng
	for _, u := range e.topo.UpstreamTasks(id) {
		urt := e.tasks[u]
		if urt == nil || urt.failed || urt.recovering {
			// An upstream peer is still failed or catching up: poll
			// until it has recovered (the §V-B synchronisation). The
			// poll period scales with the failure-detection cadence.
			e.clock.After(e.cfg.RecoveryPollInterval, func() { m.installCheckpoint(id, ck) })
			return
		}
	}

	rt := newTaskRuntime(e, id, false)
	rt.recovering = true
	if ck != nil {
		if rt.isSource {
			nb, err := decodeInt(ck.state)
			if err != nil {
				panic("engine: checkpoint restore failed: " + err.Error())
			}
			rt.nextBatch = nb
		} else if err := rt.udf.Restore(ck.state); err != nil {
			panic("engine: checkpoint restore failed: " + err.Error())
		}
		if !rt.isSource {
			rt.nextBatch = ck.batch + 1
		}
		rt.rebase(rt.nextBatch)
		rt.outBuf = copyQueues(rt.outBuf, ck.outBuf)
		for b, t := range ck.tentOut {
			rt.tentOut[b] = t
		}
		for b, owed := range ck.missIn {
			for u, v := range owed {
				if v {
					markIn(rt.missIn, b, u)
				}
			}
		}
	}
	e.tasks[id] = rt
	rt.busyUntil = e.clock.Now()
	// Replay: the restored task resends its (restored) buffered output
	// downstream, and every live upstream resends its buffer to it.
	// Receivers deduplicate already-processed batches.
	rt.resendAll()
	for _, u := range rt.upstreams {
		if up := e.tasks[u]; up != nil && !up.failed {
			up.resendAll()
		}
	}
	if rt.isSource {
		rt.catchUpSource(e.currentBatch)
		m.checkRecovered(rt)
	}
	// The task's original checkpoint timer chain keeps running; it
	// resolves the current incarnation at fire time.
}

// recoverSourceReplay implements Storm's technique: restart the failed
// task with empty state and reprocess the source data of the unfinished
// windows through the whole upstream topology (§VI-A). Live ancestor
// tasks rewind and rebuild their states by reprocessing; their duplicate
// outputs toward non-rewound tasks are dropped by batch deduplication.
func (m *master) recoverSourceReplay(id topology.TaskID, f *failure) {
	e := m.eng
	replayFrom := e.currentBatch - e.cfg.WindowBatches
	if replayFrom < 0 {
		replayFrom = 0
	}
	e.clock.After(e.cfg.RestartCost, func() {
		anc := m.ancestors(id)
		// Rewind live ancestors (deepest first is unnecessary: batch
		// staging regulates order).
		for _, a := range anc {
			art := e.tasks[a]
			if art == nil || art.failed || art.id == id {
				continue
			}
			if art.isSource {
				art.resetTo(min(replayFrom, art.nextBatch))
			} else {
				art.resetTo(replayFrom)
			}
		}
		// Fresh incarnation of the failed task.
		rt := newTaskRuntime(e, id, false)
		rt.recovering = true
		rt.rebase(replayFrom)
		if rt.isSource {
			rt.rebase(0)
		}
		e.tasks[id] = rt
		// Sources regenerate the replayed batches (and the failed task
		// itself, if it is a source, regenerates everything it owes).
		for _, a := range anc {
			art := e.tasks[a]
			if art != nil && !art.failed && art.isSource {
				art.catchUpSource(e.currentBatch)
			}
		}
		if rt.isSource {
			rt.catchUpSource(e.currentBatch)
			m.checkRecovered(rt)
		}
	})
}

// ancestors returns the failed task plus every task with a path to it,
// sorted ascending.
func (m *master) ancestors(id topology.TaskID) []topology.TaskID {
	t := m.eng.topo
	seen := map[topology.TaskID]bool{id: true}
	stack := []topology.TaskID{id}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range t.UpstreamTasks(cur) {
			if !seen[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	out := make([]topology.TaskID, 0, len(seen))
	for tid := range seen {
		out = append(out, tid)
	}
	sortIDs(out)
	return out
}

// checkRecovered marks the task recovered once its current incarnation
// has reached the pre-failure progress.
func (m *master) checkRecovered(rt *taskRuntime) {
	f, ok := m.pending[rt.id]
	if !ok || !f.detected {
		return
	}
	if rt.processedBatch < f.preFailProgress {
		return
	}
	now := maxTime(m.eng.clock.Now(), rt.busyUntil)
	f.stat.RecoveredAt = now
	f.stat.Recovered = true
	rt.recovering = false
	m.done = append(m.done, f.stat)
	delete(m.pending, rt.id)
}

// isDone reports whether the task's failure has been fully recovered.
func (m *master) isDone(id topology.TaskID) bool {
	_, pending := m.pending[id]
	return !pending
}

// fabricate delivers batch-over punctuations on behalf of failed or
// still-recovering tasks so their downstream tasks keep producing
// tentative outputs (§V-B Tentative Outputs). Runs on every batch tick.
// Replicas of the downstream tasks receive the fabrication too, keeping
// the identical-input discipline of §V-B: a replica promoted during the
// tentative window has processed the same (fabricated) batches as the
// primary it replaces.
func (m *master) fabricate() {
	e := m.eng
	if !e.cfg.TentativeOutputs {
		return
	}
	fab := delivery{punct: true, tent: true, fab: true}
	for _, id := range m.pendingIDs() {
		f := m.pending[id]
		if !f.detected {
			continue
		}
		downs := e.topo.DownstreamTasks(id)
		sortIDs(downs)
		for _, d := range downs {
			for _, drt := range []*taskRuntime{e.tasks[d], e.replicas[d]} {
				if drt == nil || drt.failed {
					continue
				}
				ui, ok := drt.upIdx(id)
				if !ok {
					continue
				}
				for b := drt.nextBatch; b <= e.currentBatch; b++ {
					if drt.hasPunct(b, ui) {
						continue
					}
					drt.receive(ui, b, Batch{}, fab)
				}
			}
		}
	}
}

// stats returns finished and pending recovery stats sorted by task. The
// sort is stable, so a task that failed again after recovering lists its
// failures in order.
func (m *master) stats() []RecoveryStat {
	out := append([]RecoveryStat(nil), m.done...)
	for _, f := range m.pending {
		out = append(out, f.stat)
	}
	slices.SortStableFunc(out, func(a, b RecoveryStat) int { return cmp.Compare(a.Task, b.Task) })
	return out
}
