package coord

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"

	"repro/internal/campaign"
)

// PoolOptions tunes the coordinator.
type PoolOptions struct {
	// HeartbeatTimeout declares a worker lost when no message (result
	// or heartbeat) arrives from it for this long while a range is
	// assigned (default 15s). Lost workers are disconnected and their
	// in-flight range is reassigned to a surviving worker.
	HeartbeatTimeout time.Duration
	// RangesPerWorker controls partition granularity: a job is cut into
	// about RangesPerWorker ranges per worker (default 4), so a lost
	// worker forfeits only a fraction of its progress and fast workers
	// steal work from slow ones.
	RangesPerWorker int
}

// rangeRetries bounds how many times one range may be reassigned after
// worker losses before the job fails.
const rangeRetries = 3

// Pool is a coordinator's set of worker connections. Add workers with
// AddProcess (local child processes over stdin/stdout) or AddConn
// (accepted TCP connections), then RunJob campaigns against them; one
// Pool serves any number of sequential jobs (a sweep reuses the same
// workers for every cell).
type Pool struct {
	opts PoolOptions

	mu      sync.Mutex
	workers []*poolWorker
	nextJob int
}

// poolWorker is one worker connection. The reader goroutine owns recv
// and forwards frames to msgs (closed when the connection dies); ready
// and dead are guarded by the pool mutex. The msgs buffer takes a
// worker's frames while the job loop is blocked writing to that
// worker: a worker that reads and writes on one goroutine, as the
// net.Pipe test workers do, would otherwise deadlock against the loop.
// 16 frames is ample, since a worker runs one range at a time.
type poolWorker struct {
	id    int
	c     *conn
	msgs  chan *message
	close func()
	ready bool
	dead  bool
}

// NewPool returns an empty pool.
func NewPool(opts PoolOptions) *Pool {
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = 15 * time.Second
	}
	if opts.RangesPerWorker <= 0 {
		opts.RangesPerWorker = 4
	}
	return &Pool{opts: opts}
}

// AddConn adds an established worker connection (for example an
// accepted TCP conn) to the pool. The worker becomes schedulable once
// its version hello arrives (see WaitReady).
func (p *Pool) AddConn(rwc io.ReadWriteCloser) {
	p.add(newConn(rwc, rwc), func() { rwc.Close() })
}

// AddProcess starts cmd as a local worker child with the protocol on
// its stdin/stdout (stderr is inherited unless already set) and adds
// it to the pool.
func (p *Pool) AddProcess(cmd *exec.Cmd) error {
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if cmd.Stderr == nil {
		cmd.Stderr = os.Stderr
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("coord: starting worker process: %w", err)
	}
	p.add(newConn(stdout, stdin), func() {
		stdin.Close()
		_ = cmd.Process.Kill()
		//ppalint:allow ctxspawn reaper returns as soon as the just-killed process is collected
		go cmd.Wait()
	})
	return nil
}

// AcceptWorkers accepts n worker connections from the listener and
// adds each to the pool.
func (p *Pool) AcceptWorkers(ln net.Listener, n int) error {
	for i := 0; i < n; i++ {
		c, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("coord: accepting worker %d: %w", i, err)
		}
		p.AddConn(c)
	}
	return nil
}

func (p *Pool) add(c *conn, closeFn func()) {
	w := &poolWorker{c: c, msgs: make(chan *message, 16), close: closeFn}
	p.mu.Lock()
	w.id = len(p.workers)
	p.workers = append(p.workers, w)
	p.mu.Unlock()
	//ppalint:allow ctxspawn reader lifetime is bounded by the connection; closing it unblocks recv
	go func() {
		defer close(w.msgs)
		defer p.markDead(w)
		first, err := c.recv()
		if err != nil || first.Type != msgHello || first.Version != ProtoVersion {
			return // version mismatch or dead on arrival: never ready
		}
		p.mu.Lock()
		w.ready = true
		p.mu.Unlock()
		for {
			m, err := c.recv()
			if err != nil {
				return
			}
			w.msgs <- m
		}
	}()
}

// markDead records the worker as unusable and closes its connection;
// idempotent.
func (p *Pool) markDead(w *poolWorker) {
	p.mu.Lock()
	wasDead := w.dead
	w.dead = true
	p.mu.Unlock()
	if !wasDead {
		w.close()
	}
}

// Live returns the number of workers that completed the handshake and
// have not died.
func (p *Pool) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, w := range p.workers {
		if w.ready && !w.dead {
			n++
		}
	}
	return n
}

// WaitReady blocks until n workers completed the version handshake, or
// ctx expires — spawn/connect confirmation before the first job.
func (p *Pool) WaitReady(ctx context.Context, n int) error {
	for {
		if p.Live() >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("coord: %d of %d workers ready: %w", p.Live(), n, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Close shuts every worker down: live ones get a shutdown message
// (local children exit on it or on the subsequent stdin close), then
// every connection is closed and child processes are reaped.
func (p *Pool) Close() {
	p.mu.Lock()
	ws := append([]*poolWorker(nil), p.workers...)
	p.mu.Unlock()
	for _, w := range ws {
		_ = w.c.send(&message{Type: msgShutdown})
		p.markDead(w)
	}
}

// RunJob runs one campaign across the pool's live workers and returns
// its report (Summary plus baseline; per-scenario results never cross
// the process boundary). The coordinator resolves the baseline volume
// locally unless the spec carries one, partitions the scenario space
// into shard-aligned ranges, hands ranges to workers as they free up,
// reassigns the in-flight range of any worker that dies or goes silent
// (at most rangeRetries times per range), and merges the returned
// shard states in shard order — bit-identical to the single-process
// campaign.RunContext for the same (seed, Shards), stopped early at the
// same shard when the spec sets a stop tolerance. A worker-reported
// scenario error or ctx cancellation fails the job fast; workers still
// running a range of the job get a cancel.
//
// One goroutine, the caller's, owns the job's state: every member's
// frames reach its loop on one channel, so a result counts only for
// the range its worker is running.
func (p *Pool) RunJob(ctx context.Context, spec campaign.WireSpec) (*campaign.Report, error) {
	// Build the campaign locally too: the coordinator needs the
	// scenario count for partitioning and the baseline for the workers.
	cfg, err := spec.Config()
	if err != nil {
		return nil, fmt.Errorf("coord: building job: %w", err)
	}
	if spec.Baseline == 0 {
		base, err := campaign.BaselineVolume(cfg)
		if err != nil {
			return nil, err
		}
		spec.Baseline = base
		cfg.Baseline = base
	}

	j := &job{p: p, spec: &spec, mon: campaign.NewStopMonitor(cfg)}
	p.mu.Lock()
	p.nextJob++
	j.id = p.nextJob
	for _, w := range p.workers {
		if w.ready && !w.dead {
			j.members = append(j.members, &member{w: w})
		}
	}
	p.mu.Unlock()
	j.live = len(j.members)
	if j.live == 0 {
		return nil, errors.New("coord: no live workers")
	}
	ranges, err := partitionJob(cfg, p.opts.RangesPerWorker*j.live)
	if err != nil {
		return nil, err
	}
	for _, r := range ranges {
		j.ranges = append(j.ranges, &rangeTask{r: r})
	}
	j.pending = append([]*rangeTask(nil), j.ranges...)
	j.left = len(ranges)

	jctx, cancel := context.WithCancel(ctx)
	in := make(chan frame)
	var relays sync.WaitGroup
	for _, m := range j.members {
		relays.Add(1)
		go func() {
			defer relays.Done()
			m.relay(jctx, in)
		}()
	}
	err = j.run(ctx, in)
	// A relay still running could take the next job's frames.
	cancel()
	relays.Wait()
	if err != nil {
		return nil, err
	}

	scenarios, stopShard := len(cfg.Scenarios), -1
	if j.mon.Fired() {
		scenarios, stopShard = j.mon.PrefixScenarios(), j.mon.StopShard()
	}
	var states []campaign.ShardState
	for _, t := range j.ranges {
		for _, st := range t.states {
			if stopShard < 0 || st.Shard <= stopShard {
				states = append(states, st)
			}
		}
	}
	rep, err := mergeJob(states, scenarios, spec.Baseline)
	if err != nil {
		return nil, err
	}
	rep.Stopped = j.mon.Fired()
	return rep, nil
}

// job is one RunJob call's state, read and written only by the
// goroutine running it.
//
// Early stopping: with a stop monitor, each completed range at the
// front of the scenario order feeds its shard states to the monitor —
// the same shard-order prefix walk the single-process runner does,
// over the same serialised bytes, so both fire at the same checkpoint.
// The job then ends at once: it cancels the ranges in flight and
// merges only the prefix, so whatever started, failed or was cancelled
// past it is discarded, as in campaign.RunContext.
type job struct {
	p       *Pool
	id      int
	spec    *campaign.WireSpec
	members []*member
	live    int          // members not lost
	ranges  []*rangeTask // in scenario order
	pending []*rangeTask // not yet assigned, in assignment order
	left    int          // ranges not yet completed
	mon     *campaign.StopMonitor
	fed     int // ranges fed to mon
}

// member is one worker of a job.
type member struct {
	w        *poolWorker
	task     *rangeTask // the range it runs; nil when idle
	deadline time.Time  // when it is lost unless a frame arrives first
	lost     bool
}

// rangeTask is one range of a job.
type rangeTask struct {
	r      campaign.Range
	losses int // workers lost with it in flight
	done   bool
	states []campaign.ShardState
}

// frame is one message from a member; a nil msg says its connection
// closed.
type frame struct {
	m   *member
	msg *message
}

// relay forwards the member's frames to the job loop until ctx ends.
func (m *member) relay(ctx context.Context, in chan<- frame) {
	for {
		var msg *message
		select {
		case msg = <-m.w.msgs:
		case <-ctx.Done():
			return
		}
		select {
		case in <- frame{m, msg}:
		case <-ctx.Done():
			return
		}
		if msg == nil {
			return
		}
	}
}

// run is the job loop. It sends the job to every member, hands
// pending ranges to idle members, and handles their frames until every
// range completed or the stop rule fired; it cancels the ranges still
// in flight when it returns.
func (j *job) run(ctx context.Context, in <-chan frame) error {
	defer func() {
		for _, m := range j.members {
			if m.task != nil {
				_ = m.w.c.send(&message{Type: msgCancel, Job: j.id})
			}
		}
	}()
	for _, m := range j.members {
		if err := m.w.c.send(&message{Type: msgJob, Job: j.id, Spec: j.spec}); err != nil {
			_ = j.lose(m) // it holds no range yet, so this cannot fail the job
		}
	}
	timeout := j.p.opts.HeartbeatTimeout
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		if j.left == 0 || j.mon.Fired() {
			return nil
		}
		if err := j.dispatch(); err != nil {
			return err
		}
		if j.live == 0 {
			return errors.New("coord: all workers lost with ranges outstanding")
		}
		select {
		case f := <-in:
			if err := j.handle(f); err != nil {
				return err
			}
		case now := <-timer.C:
			// The timer fires no later than the earliest deadline:
			// every deadline is set a full timeout ahead and only
			// moves later.
			next := now.Add(timeout)
			for _, m := range j.members {
				if m.task == nil {
					continue
				}
				if !m.deadline.After(now) {
					if err := j.lose(m); err != nil {
						return err
					}
				} else if m.deadline.Before(next) {
					next = m.deadline
				}
			}
			timer.Reset(next.Sub(now))
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// dispatch hands pending ranges to idle members.
func (j *job) dispatch() error {
	for _, m := range j.members {
		for !m.lost && m.task == nil && len(j.pending) > 0 {
			m.task, j.pending = j.pending[0], j.pending[1:]
			m.deadline = time.Now().Add(j.p.opts.HeartbeatTimeout)
			if err := m.w.c.send(&message{Type: msgAssign, Job: j.id, Range: &m.task.r}); err != nil {
				if err := j.lose(m); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// handle applies one member frame to the job.
func (j *job) handle(f frame) error {
	m, msg := f.m, f.msg
	switch {
	case m.lost:
		return nil // frames still buffered from a worker given up on
	case msg == nil:
		return j.lose(m)
	}
	m.deadline = time.Now().Add(j.p.opts.HeartbeatTimeout) // any frame proves liveness
	switch msg.Type {
	case msgHeartbeat:
		// Liveness only: the deadline moved above.
	case msgResult:
		t := m.task
		if msg.Job != j.id || t == nil || msg.Range == nil || *msg.Range != t.r {
			return nil // a superseded job's result, or a copy of one credited already
		}
		m.task = nil
		t.done, t.states = true, msg.States
		j.left--
		for ; j.mon != nil && j.fed < len(j.ranges) && j.ranges[j.fed].done; j.fed++ {
			for _, st := range j.ranges[j.fed].states {
				if err := j.mon.Observe(st); err != nil || j.mon.Fired() {
					return err
				}
			}
		}
	case msgError:
		if msg.Job == j.id {
			return fmt.Errorf("coord: worker %d: %s", m.w.id, msg.Error)
		}
	default:
		// A frame kind the coordinator never expects on a job stream
		// (job, assign, cancel, shutdown echoed back, or a newer
		// protocol's kind): the worker is confused, treat it as lost so
		// its range is reassigned instead of silently dropping frames.
		return j.lose(m)
	}
	return nil
}

// lose gives up on a member: its connection is closed and its range,
// if any, goes back on the queue, failing the job once the range was
// lost more than rangeRetries times.
func (j *job) lose(m *member) error {
	m.lost = true
	j.live--
	j.p.markDead(m.w)
	t := m.task
	if t == nil {
		return nil
	}
	m.task = nil
	if t.losses++; t.losses > rangeRetries {
		return fmt.Errorf("coord: range %s failed %d times: worker %d lost with it in flight", t.r, t.losses, m.w.id)
	}
	j.pending = append(j.pending, t)
	return nil
}
