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
	// fails holds each task's tracked failure, by task ID; pending lists
	// the tasks that have one, sorted. The loops over pending (heartbeat,
	// fabricate) only schedule events: nothing they call tracks or ends
	// a failure while they run.
	fails   []failure
	pending []topology.TaskID
	done    []RecoveryStat
	// The recovery steps' runners, by task ID: the end of a checkpoint
	// restore, of a replica's activation and of a source-replay restart,
	// and a promoted replica's catch-up check. A task has at most one of
	// each pending: it stays failed, and so cannot fail again, until its
	// restore, activation or restart ends, and only its one replica's
	// promotion schedules a catch-up check.
	installs    []installEvent
	activations []activation
	catchUps    []catchUpCheck
	restarts    []restartEvent
}

type failure struct {
	tracked bool
	stat    RecoveryStat
	// preFailProgress is the progress vector captured at failure time
	// (the batch index, which under the batch discipline determines the
	// per-input-stream tuple sequence numbers).
	preFailProgress int
	detected        bool
}

func newMaster(e *Engine) *master {
	n := e.topo.NumTasks()
	m := &master{
		eng:         e,
		fails:       make([]failure, n),
		installs:    make([]installEvent, n),
		activations: make([]activation, n),
		catchUps:    make([]catchUpCheck, n),
		restarts:    make([]restartEvent, n),
	}
	for id := range n {
		tid := topology.TaskID(id)
		m.installs[id] = installEvent{m: m, id: tid}
		m.activations[id] = activation{m: m, id: tid}
		m.catchUps[id] = catchUpCheck{m: m, id: tid}
		m.restarts[id] = restartEvent{m: m, id: tid}
	}
	return m
}

// reset clears all failure bookkeeping (Engine.Reset).
func (m *master) reset() {
	for _, id := range m.pending {
		m.fails[id] = failure{}
	}
	m.pending = m.pending[:0]
	m.done = m.done[:0]
}

// onFailure captures the failed task's progress; detection happens at
// the next heartbeat. It replaces a failure the task still tracks.
func (m *master) onFailure(id topology.TaskID, rt *taskRuntime) {
	if i, found := slices.BinarySearch(m.pending, id); !found {
		m.pending = slices.Insert(m.pending, i, id)
	}
	m.fails[id] = failure{
		tracked: true,
		stat: RecoveryStat{
			Task:     id,
			Strategy: m.eng.strategy[id],
			FailedAt: m.eng.clock.Now(),
		},
		preFailProgress: rt.nextBatch - 1,
	}
}

// heartbeat detects failed tasks and starts their recovery.
func (m *master) heartbeat() {
	now := m.eng.clock.Now()
	for _, id := range m.pending {
		f := &m.fails[id]
		if f.detected {
			continue
		}
		f.detected = true
		f.stat.DetectedAt = now
		m.recover(id)
	}
}

// recover dispatches on the task's fault-tolerance strategy.
func (m *master) recover(id topology.TaskID) {
	switch m.eng.strategy[id] {
	case StrategyActive:
		m.recoverActive(id)
	case StrategySourceReplay:
		m.recoverSourceReplay(id)
	case StrategyNone:
		// Unrecoverable within the experiment horizon: fabrication
		// continues, the task stays down.
	default:
		m.recoverCheckpoint(id)
	}
}

// recoverActive activates the task's replica, which is promoted once
// the activation ends (promote).
func (m *master) recoverActive(id topology.TaskID) {
	e := m.eng
	if rep := e.replicas[id]; rep == nil || rep.failed {
		// No usable replica (not planned, or standby failed): fall back
		// to checkpoint recovery.
		m.recoverCheckpoint(id)
		return
	}
	e.clock.AfterRun(replicaActivateCost, &m.activations[id])
}

// activation ends the activation of a task's replica.
type activation struct {
	m  *master
	id topology.TaskID
}

// Run implements sim.Runner.
func (a *activation) Run() { a.m.promote(a.id) }

// promote makes the task's activated replica its primary: outputs on,
// buffered output resent to the downstream tasks (which deduplicate by
// batch), §V-B. Nothing but the promotion takes the replica off
// Engine.replicas, so it is the one recoverActive found.
func (m *master) promote(id topology.TaskID) {
	e := m.eng
	rep := e.replicas[id]
	if rep.failed {
		// The standby failed during the activation: fall back to
		// checkpoint recovery, as detection does.
		m.recoverCheckpoint(id)
		return
	}
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
		e.clock.AtRun(max(rep.busyUntil, e.clock.Now()), &m.catchUps[id])
	}
}

// catchUpCheck checks whether a task's promoted replica has caught up
// once its resend work has drained.
type catchUpCheck struct {
	m  *master
	id topology.TaskID
}

// Run implements sim.Runner.
func (c *catchUpCheck) Run() { c.m.checkRecovered(c.m.eng.tasks[c.id]) }

// recoverCheckpoint restores the task from its latest checkpoint on a
// standby node and replays the upstream output buffers (§V-B Passive
// Replication).
func (m *master) recoverCheckpoint(id topology.TaskID) {
	e := m.eng
	ck := e.checkpoint(id)
	var restoreCost sim.Time
	if ck != nil {
		restoreCost = restoreFixed + sim.Time(float64(ck.bytes)/restoreByteRate)
	} else {
		// No checkpoint yet: cold restart reprocesses from batch 0.
		restoreCost = restoreFixed
	}
	ie := &m.installs[id]
	ie.ck = ck
	e.clock.AfterRun(restoreCost, ie)
}

// installEvent ends a task's checkpoint restore, and then polls until
// the install can go ahead (installCheckpoint). ck is the checkpoint
// restored, nil for a cold restart.
type installEvent struct {
	m  *master
	id topology.TaskID
	ck *checkpointData
}

// Run implements sim.Runner.
func (ie *installEvent) Run() { ie.m.installCheckpoint(ie) }

// installCheckpoint finishes a checkpoint recovery once the paper's
// synchronisation condition holds (§V-B): "if a task and its upstream
// neighbouring task are failed simultaneously and its checkpoint is made
// later than its upstream peers', the recovery of the downstream task
// can only be started after its upstream peer has caught up with the
// processing progress". Under a correlated failure this serialises the
// recovery waves level by level — the main reason checkpoint recovery
// of a correlated failure is so much slower than of a single failure.
func (m *master) installCheckpoint(ie *installEvent) {
	e := m.eng
	id, ck := ie.id, ie.ck
	for _, u := range e.prim[id].upstreams {
		if urt := e.tasks[u]; urt.failed || urt.recovering {
			// An upstream peer is still failed or catching up: poll
			// until it has recovered (the §V-B synchronisation).
			e.clock.AfterRun(e.cfg.recoveryPoll(), ie)
			return
		}
	}

	rt := e.tasks[id]
	rt.restart()
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
		rt.replayState.copyFrom(&ck.replayState)
	}
	rt.busyUntil = e.clock.Now()
	// Replay: the restored task resends its (restored) buffered output
	// downstream, and every live upstream resends its buffer to it.
	// Receivers deduplicate already-processed batches.
	rt.resendAll()
	for _, u := range rt.upstreams {
		if up := e.tasks[u]; !up.failed {
			up.resendAll()
		}
	}
	if rt.isSource {
		rt.catchUpSource(e.currentBatch)
		m.checkRecovered(rt)
	}
}

// recoverSourceReplay implements Storm's technique: restart the failed
// task with empty state and reprocess the source data of the unfinished
// windows through the whole upstream topology (§VI-A). The restart
// ends after restartCost (replay).
func (m *master) recoverSourceReplay(id topology.TaskID) {
	e := m.eng
	r := &m.restarts[id]
	r.from = max(e.currentBatch-e.cfg.WindowBatches, 0)
	e.clock.AfterRun(restartCost, r)
}

// restartEvent ends a task's source-replay restart, which replays from
// batch from.
type restartEvent struct {
	m    *master
	id   topology.TaskID
	from int
}

// Run implements sim.Runner.
func (r *restartEvent) Run() { r.m.replay(r.id, r.from) }

// replay restarts the failed task at batch replayFrom. Live ancestor
// tasks rewind and rebuild their states by reprocessing; their
// duplicate outputs toward non-rewound tasks are dropped by batch
// deduplication.
func (m *master) replay(id topology.TaskID, replayFrom int) {
	e := m.eng
	anc := m.ancestors(id)
	// Rewind live ancestors (deepest first is unnecessary: batch
	// staging regulates order).
	for _, a := range anc {
		art := e.tasks[a]
		if art.failed {
			continue // the failed task itself among them
		}
		if art.isSource {
			art.resetTo(min(replayFrom, art.nextBatch))
		} else {
			art.resetTo(replayFrom)
		}
	}
	rt := e.tasks[id]
	rt.restart()
	rt.recovering = true
	rt.rebase(replayFrom)
	if rt.isSource {
		rt.rebase(0)
	}
	// Sources regenerate the replayed batches (and the failed task
	// itself, if it is a source, regenerates everything it owes).
	for _, a := range anc {
		if art := e.tasks[a]; !art.failed && art.isSource {
			art.catchUpSource(e.currentBatch)
		}
	}
	if rt.isSource {
		rt.catchUpSource(e.currentBatch)
		m.checkRecovered(rt)
	}
}

// ancestors returns the failed task plus every task with a path to it,
// sorted ascending.
func (m *master) ancestors(id topology.TaskID) []topology.TaskID {
	seen := map[topology.TaskID]bool{id: true}
	out := []topology.TaskID{id}
	for i := 0; i < len(out); i++ {
		for _, u := range m.eng.prim[out[i]].upstreams {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	slices.Sort(out)
	return out
}

// checkRecovered marks the task recovered once its current primary has
// reached the pre-failure progress.
func (m *master) checkRecovered(rt *taskRuntime) {
	f := &m.fails[rt.id]
	if !f.tracked || !f.detected {
		return
	}
	if rt.nextBatch-1 < f.preFailProgress {
		return
	}
	now := max(m.eng.clock.Now(), rt.busyUntil)
	f.stat.RecoveredAt = now
	f.stat.Recovered = true
	rt.recovering = false
	m.done = append(m.done, f.stat)
	*f = failure{}
	i, _ := slices.BinarySearch(m.pending, rt.id)
	m.pending = slices.Delete(m.pending, i, i+1)
}

// isDone reports whether the task's failure has been fully recovered.
func (m *master) isDone(id topology.TaskID) bool { return !m.fails[id].tracked }

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
	for _, id := range m.pending {
		if !m.fails[id].detected {
			continue
		}
		for _, d := range e.prim[id].downs {
			ui := e.senderIdx[id][d.slot]
			m.fabricateFor(e.tasks[d.id], ui, fab)
			m.fabricateFor(e.replicas[d.id], ui, fab)
		}
	}
}

// fabricateFor delivers the fabricated punctuations the downstream
// runtime drt still misses from its upstream ui, up to the current
// batch.
func (m *master) fabricateFor(drt *taskRuntime, ui int32, fab delivery) {
	if drt == nil || drt.failed {
		return
	}
	for b := drt.nextBatch; b <= m.eng.currentBatch; b++ {
		if !drt.hasPunct(b, ui) {
			drt.receive(ui, b, Batch{}, fab)
		}
	}
}

// stats returns finished and pending recovery stats sorted by task. The
// sort is stable, so a task that failed again after recovering lists its
// failures in order.
func (m *master) stats() []RecoveryStat {
	out := append([]RecoveryStat(nil), m.done...)
	for _, id := range m.pending {
		out = append(out, m.fails[id].stat)
	}
	slices.SortStableFunc(out, func(a, b RecoveryStat) int { return cmp.Compare(a.Task, b.Task) })
	return out
}
