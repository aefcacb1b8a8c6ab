package coord

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

// testSpec builds a fast, deterministic wire campaign: the small
// preset topology under the greedy plan with tentative outputs,
// single-node and k-of-rack bursts.
func testSpec(t testing.TB, scenarios int) campaign.WireSpec {
	t.Helper()
	topo, err := campaign.PresetTopology(campaign.TopoSmall, 11)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := campaign.NewWireSpec(campaign.EnvSpec{Topo: topo, Planner: "greedy", Tentative: true}, []campaign.GenSpec{
		{Seed: 21, Scenarios: scenarios / 2, Model: campaign.KOfRack, Correlation: campaign.DefaultCorrelation},
		{Seed: 33, Scenarios: scenarios - scenarios/2, Model: campaign.Cascade, Correlation: campaign.DefaultCorrelation},
	})
	if err != nil {
		t.Fatal(err)
	}
	spec.Horizon = 60
	spec.Shards = 4
	return spec
}

// localRun executes the wire campaign single-process as the reference.
func localRun(t testing.TB, spec campaign.WireSpec) *campaign.Report {
	t.Helper()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// addServedWorker runs a real in-process ServeWorker over a net.Pipe
// and adds the coordinator end to the pool.
func addServedWorker(t testing.TB, p *Pool) {
	t.Helper()
	a, b := net.Pipe()
	go func() {
		_ = ServeWorker(context.Background(), b, b, WorkerOptions{HeartbeatInterval: 50 * time.Millisecond})
		b.Close()
	}()
	p.AddConn(a)
}

// addFakeWorker runs a scripted worker: it sends a hello (with the
// given version) and then feeds every received frame to behave, which
// may reply on the conn; returning false ends the worker.
func addFakeWorker(t testing.TB, p *Pool, version int, behave func(c *conn, m *message) bool) {
	t.Helper()
	a, b := net.Pipe()
	go func() {
		defer b.Close()
		c := newConn(b, b)
		_ = c.send(&message{Type: msgHello, Version: version})
		for {
			m, err := c.recv()
			if err != nil {
				return
			}
			if behave != nil && !behave(c, m) {
				return
			}
		}
	}()
	p.AddConn(a)
}

// addRangeWorker adds a scripted worker that builds each job's
// campaign from its spec and hands every assign frame, with that
// campaign, to assign, which replies on the conn.
func addRangeWorker(t testing.TB, p *Pool, assign func(c *conn, m *message, cfg campaign.Config)) {
	t.Helper()
	var cfg campaign.Config
	addFakeWorker(t, p, ProtoVersion, func(c *conn, m *message) bool {
		switch m.Type {
		case msgJob:
			jc, err := m.Spec.Config()
			if err != nil {
				t.Errorf("building config: %v", err)
				return false
			}
			cfg = jc
		case msgAssign:
			assign(c, m, cfg)
		}
		return true
	})
}

// runRange runs an assigned range and returns its result frame.
func runRange(t testing.TB, m *message, cfg campaign.Config) *message {
	states, err := campaign.RunRange(cfg, *m.Range)
	if err != nil {
		t.Errorf("running range %v: %v", m.Range, err)
	}
	return &message{Type: msgResult, Job: m.Job, Range: m.Range, States: states}
}

func waitReady(t testing.TB, p *Pool, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.WaitReady(ctx, n); err != nil {
		t.Fatal(err)
	}
}

// TestPoolMatchesSingleProcess: a job run over in-process protocol
// workers merges to the exact single-process Summary, and the same
// pool serves a second job (sweep reuse).
func TestPoolMatchesSingleProcess(t *testing.T) {
	spec := testSpec(t, 24)
	want := localRun(t, spec)

	p := NewPool(PoolOptions{})
	defer p.Close()
	addServedWorker(t, p)
	addServedWorker(t, p)
	waitReady(t, p, 2)

	for job := 0; job < 2; job++ {
		rep, err := p.RunJob(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Summary != want.Summary {
			t.Fatalf("job %d: distributed summary differs from single-process:\n%+v\n%+v", job, rep.Summary, want.Summary)
		}
		if rep.BaselineSinkTuples != want.BaselineSinkTuples {
			t.Fatalf("job %d: baseline %d, want %d", job, rep.BaselineSinkTuples, want.BaselineSinkTuples)
		}
	}
}

// TestSilentWorkerReassigned: a worker that accepts work and then goes
// silent is declared lost after the heartbeat timeout and its range is
// re-run by the surviving worker; the summary is still bit-identical.
func TestSilentWorkerReassigned(t *testing.T) {
	spec := testSpec(t, 24)
	want := localRun(t, spec)

	p := NewPool(PoolOptions{HeartbeatTimeout: 300 * time.Millisecond})
	defer p.Close()
	// The fake accepts everything and never answers — and never
	// heartbeats, so only the timeout can unmask it.
	addFakeWorker(t, p, ProtoVersion, func(*conn, *message) bool { return true })
	addServedWorker(t, p)
	waitReady(t, p, 2)

	rep, err := p.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary != want.Summary {
		t.Fatalf("summary differs after reassignment:\n%+v\n%+v", rep.Summary, want.Summary)
	}
	if live := p.Live(); live != 1 {
		t.Fatalf("Live() = %d after losing the silent worker, want 1", live)
	}
}

// TestAllWorkersLostFails: when every worker dies with ranges
// outstanding, the job fails instead of hanging.
func TestAllWorkersLostFails(t *testing.T) {
	spec := testSpec(t, 24)
	p := NewPool(PoolOptions{HeartbeatTimeout: 200 * time.Millisecond})
	defer p.Close()
	addFakeWorker(t, p, ProtoVersion, func(*conn, *message) bool { return true })
	waitReady(t, p, 1)

	_, err := p.RunJob(context.Background(), spec)
	if err == nil {
		t.Fatal("job with only a silent worker succeeded")
	}
}

// TestWorkerErrorFailsFast: an error frame from a worker fails the
// whole job with the worker's message.
func TestWorkerErrorFailsFast(t *testing.T) {
	spec := testSpec(t, 24)
	p := NewPool(PoolOptions{})
	defer p.Close()
	addFakeWorker(t, p, ProtoVersion, func(c *conn, m *message) bool {
		if m.Type == msgAssign {
			_ = c.send(&message{Type: msgError, Job: m.Job, Error: "injected scenario failure"})
		}
		return true
	})
	waitReady(t, p, 1)

	_, err := p.RunJob(context.Background(), spec)
	if err == nil || !strings.Contains(err.Error(), "injected scenario failure") {
		t.Fatalf("err = %v, want the worker's injected failure", err)
	}
}

// TestDuplicateResultDropped: a result frame counts only for the range
// its worker is running. The worker sends every result twice; the copy
// arrives once the worker runs its next range (or none) and is dropped
// instead of completing that range with the states of the last one.
func TestDuplicateResultDropped(t *testing.T) {
	spec := testSpec(t, 48)
	want := localRun(t, spec)

	p := NewPool(PoolOptions{RangesPerWorker: 4})
	defer p.Close()
	addRangeWorker(t, p, func(c *conn, m *message, cfg campaign.Config) {
		res := runRange(t, m, cfg)
		_ = c.send(res)
		_ = c.send(res)
	})
	waitReady(t, p, 1)

	rep, err := p.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary != want.Summary {
		t.Fatalf("summary differs with duplicated results:\n%+v\n%+v", rep.Summary, want.Summary)
	}
}

// TestConnectOverTCP: workers that dial the coordinator (Connect) and
// are accepted from a listener (AcceptWorkers) run a job to the
// single-process summary, and each returns nil once the pool closes.
func TestConnectOverTCP(t *testing.T) {
	spec := testSpec(t, 24)
	want := localRun(t, spec)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	p := NewPool(PoolOptions{})
	defer p.Close()
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { done <- Connect(context.Background(), ln.Addr().String(), WorkerOptions{}) }()
	}
	if err := p.AcceptWorkers(ln, 2); err != nil {
		t.Fatal(err)
	}
	waitReady(t, p, 2)

	rep, err := p.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary != want.Summary {
		t.Fatalf("summary over TCP differs from single-process:\n%+v\n%+v", rep.Summary, want.Summary)
	}
	p.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Connect = %v after Pool.Close, want nil", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a worker did not return after Pool.Close")
		}
	}
}

// TestVersionMismatchNeverReady: a worker with the wrong protocol
// version is dropped at the handshake.
func TestVersionMismatchNeverReady(t *testing.T) {
	p := NewPool(PoolOptions{})
	defer p.Close()
	addFakeWorker(t, p, ProtoVersion+1, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := p.WaitReady(ctx, 1); err == nil {
		t.Fatal("version-mismatched worker became ready")
	}
	if p.Live() != 0 {
		t.Fatalf("Live() = %d, want 0", p.Live())
	}
}

// TestRunJobCancelled: cancelling the coordinator context fails the
// job promptly even while a worker keeps heartbeating (alive but
// slow), proving cancellation does not depend on the liveness timeout.
func TestRunJobCancelled(t *testing.T) {
	spec := testSpec(t, 24)
	stop := make(chan struct{})
	defer close(stop)
	p := NewPool(PoolOptions{HeartbeatTimeout: time.Hour})
	defer p.Close()
	addFakeWorker(t, p, ProtoVersion, func(c *conn, m *message) bool {
		if m.Type == msgAssign {
			go func() { // heartbeat forever, never finish
				tick := time.NewTicker(20 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-tick.C:
						if c.send(&message{Type: msgHeartbeat, Job: m.Job}) != nil {
							return
						}
					case <-stop:
						return
					}
				}
			}()
		}
		return true
	})
	waitReady(t, p, 1)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := p.RunJob(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
}

// TestServeWorkerEOF: a worker whose coordinator goes away exits
// cleanly on EOF.
func TestServeWorkerEOF(t *testing.T) {
	r, w := io.Pipe()
	done := make(chan error, 1)
	go func() { done <- ServeWorker(context.Background(), r, io.Discard, WorkerOptions{}) }()
	w.Close() // EOF on the worker's input
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeWorker = %v, want nil on EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeWorker did not exit on EOF")
	}
}
