package coord

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/campaign"
)

// WorkerOptions tunes ServeWorker.
type WorkerOptions struct {
	// HeartbeatInterval is the wall-clock period of liveness heartbeats
	// (default 1s). The coordinator's HeartbeatTimeout should be a
	// comfortable multiple of it.
	HeartbeatInterval time.Duration
}

// ServeWorker runs the worker half of the campaign protocol over the
// byte streams r and w until EOF, a shutdown message, or ctx
// cancellation. It opens with a version hello, heartbeats on a ticker
// to prove it is alive, and for each assigned range runs
// campaign.RunRangeContext and sends the serialised shard states back.
// A range error is reported with an error message — the coordinator
// fails the whole campaign fast — and a cancel message aborts the
// in-flight range via its context.
func ServeWorker(ctx context.Context, r io.Reader, w io.Writer, opts WorkerOptions) error {
	hb := opts.HeartbeatInterval
	if hb <= 0 {
		hb = time.Second
	}
	c := newConn(r, w)
	if err := c.send(&message{Type: msgHello, Version: ProtoVersion}); err != nil {
		return fmt.Errorf("coord: worker hello: %w", err)
	}

	hctx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go func() {
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				// A send error means the connection is going down; the
				// main recv loop observes it and exits.
				_ = c.send(&message{Type: msgHeartbeat})
			case <-hctx.Done():
				return
			}
		}
	}()

	// The job and the in-flight range's cancel belong to this loop; a
	// range goroutine gets copies.
	var (
		jobID     int
		cfg       campaign.Config
		cfgOK     bool
		cancelRun context.CancelFunc
		runs      sync.WaitGroup
	)
	defer runs.Wait()
	defer func() {
		if cancelRun != nil {
			cancelRun()
		}
	}()

	errMsg := func(job int, text string) *message {
		return &message{Type: msgError, Job: job, Error: text}
	}
	for {
		m, err := c.recv()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, io.EOF) {
				return nil // coordinator closed the connection: done
			}
			return fmt.Errorf("coord: worker recv: %w", err)
		}
		switch m.Type {
		case msgJob:
			jobID, cfgOK = m.Job, false
			if m.Spec == nil {
				_ = c.send(errMsg(m.Job, "job without a spec"))
				continue
			}
			jc, err := m.Spec.Config()
			if err != nil {
				_ = c.send(errMsg(m.Job, "building campaign from wire spec: "+err.Error()))
				continue
			}
			cfg, cfgOK = jc, true
		case msgAssign:
			if m.Job != jobID || !cfgOK || m.Range == nil {
				_ = c.send(errMsg(m.Job, fmt.Sprintf("assign for unknown or failed job %d", m.Job)))
				continue
			}
			rctx, cancel := context.WithCancel(ctx)
			cancelRun = cancel
			rc, id, rng := cfg, m.Job, *m.Range
			runs.Add(1)
			go func() {
				defer runs.Done()
				defer cancel()
				states, err := campaign.RunRangeContext(rctx, rc, rng)
				if err != nil {
					if rctx.Err() != nil {
						return // cancelled: the coordinator moved on
					}
					_ = c.send(errMsg(id, err.Error()))
					return
				}
				_ = c.send(&message{Type: msgResult, Job: id, Range: &rng, States: states})
			}()
		case msgCancel:
			if cancelRun != nil && m.Job == jobID {
				cancelRun()
			}
		case msgShutdown:
			return nil
		default:
			// A frame kind the worker never legitimately receives
			// (hello, heartbeat, result, error — or something newer
			// than this protocol version): fail loudly instead of
			// dropping it, so a version skew surfaces at the first
			// frame rather than as a silent hang.
			_ = c.send(errMsg(m.Job, fmt.Sprintf("unexpected frame kind %q", m.Type)))
			return fmt.Errorf("coord: worker received unexpected frame kind %q", m.Type)
		}
	}
}

// Connect dials the coordinator at addr and serves the worker protocol
// over the TCP connection until the coordinator shuts it down.
func Connect(ctx context.Context, addr string, opts WorkerOptions) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("coord: dialing coordinator: %w", err)
	}
	defer nc.Close()
	return ServeWorker(ctx, nc, nc, opts)
}
