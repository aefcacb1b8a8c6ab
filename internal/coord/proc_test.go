package coord

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
)

// workerProcEnv re-executes the test binary as a protocol worker on
// its stdio: TestMain intercepts the variable before any test runs, so
// AddProcess(os.Executable()) spawns real worker processes without a
// separate binary.
const workerProcEnv = "PPA_COORD_WORKER_PROC"

func TestMain(m *testing.M) {
	if os.Getenv(workerProcEnv) == "1" {
		if err := ServeWorker(context.Background(), os.Stdin, os.Stdout, WorkerOptions{}); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// spawnWorkers adds n re-exec'd worker processes to the pool and waits
// for their handshakes.
func spawnWorkers(t testing.TB, p *Pool, n int) []*os.Process {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*os.Process, n)
	for i := range procs {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), workerProcEnv+"=1")
		if procs[i], err = p.AddProcess(cmd); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.WaitReady(ctx, n); err != nil {
		t.Fatal(err)
	}
	return procs
}

// killAt kills one worker process mid-sweep: on the fourth progress
// report (each range completion reports, and a job has 8 ranges per
// worker), so the kill lands inside the sweep however fast the
// scenarios run. The callback blocks until the pool has seen the
// worker die, so the job cannot finish around the kill.
type killAt struct {
	pool    *Pool
	proc    *os.Process
	reports atomic.Int32
}

// progress is a PoolOptions.OnProgress callback.
func (k *killAt) progress(int) {
	if k.reports.Add(1) != 4 {
		return
	}
	_ = k.proc.Kill()
	for deadline := time.Now().Add(30 * time.Second); k.pool.Live() > 1 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

func (k *killAt) fired() bool { return k.reports.Load() >= 4 }

// TestDistributedGolden is the tentpole acceptance test: the same
// campaign run through a coordinator and N real local worker processes
// produces a Summary bit-identical to the single-process run for
// N ∈ {1, 2, 4}, verified by golden digest.
func TestDistributedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	spec := testSpec(t, 24)
	want := localRun(t, spec)
	wantHash := campaign.SummaryDigest(want.Summary)

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			p := NewPool(PoolOptions{})
			defer p.Close()
			spawnWorkers(t, p, n)
			rep, err := p.RunJob(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := campaign.SummaryDigest(rep.Summary); got != wantHash {
				t.Errorf("summary digest %s, want single-process %s", got, wantHash)
			}
			if rep.Summary != want.Summary {
				t.Fatalf("distributed summary differs from single-process:\n%+v\n%+v", rep.Summary, want.Summary)
			}
			if rep.BaselineSinkTuples != want.BaselineSinkTuples {
				t.Fatalf("baseline %d, want %d", rep.BaselineSinkTuples, want.BaselineSinkTuples)
			}
		})
	}
}

// TestDistributedWorkerKill: killing one of two worker processes
// mid-sweep reassigns its ranges to the survivor and the campaign
// still completes with the bit-identical summary.
func TestDistributedWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	spec := testSpec(t, 400)
	want := localRun(t, spec)

	var kill killAt
	p := NewPool(PoolOptions{RangesPerWorker: 8, OnProgress: kill.progress})
	defer p.Close()
	kill.pool, kill.proc = p, spawnWorkers(t, p, 2)[0]
	rep, err := p.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !kill.fired() {
		t.Fatal("the worker was never killed")
	}
	if rep.Summary != want.Summary {
		t.Fatalf("summary differs after worker kill:\n%+v\n%+v", rep.Summary, want.Summary)
	}
	if live := p.Live(); live != 1 {
		t.Fatalf("Live() = %d after the kill, want 1", live)
	}
}

// TestDistributedSmoke10k is the CI multi-process smoke (gated behind
// PPA_DIST_SMOKE=1, minutes-long): a 10k-scenario campaign through a
// coordinator and 2 local worker processes must match the
// single-process summary digest exactly — once undisturbed, and once
// with one worker killed mid-sweep.
func TestDistributedSmoke10k(t *testing.T) {
	if os.Getenv("PPA_DIST_SMOKE") == "" {
		t.Skip("set PPA_DIST_SMOKE=1 to run the multi-process smoke")
	}
	spec := testSpec(t, 10_000)
	start := time.Now()
	want := localRun(t, spec)
	wantHash := campaign.SummaryDigest(want.Summary)
	t.Logf("single-process reference: %v, digest %s", time.Since(start), wantHash)

	run := func(name string, kill bool) {
		t.Run(name, func(t *testing.T) {
			opts := PoolOptions{RangesPerWorker: 8}
			var k killAt
			if kill {
				opts.OnProgress = k.progress
			}
			p := NewPool(opts)
			defer p.Close()
			k.pool, k.proc = p, spawnWorkers(t, p, 2)[0]
			start := time.Now()
			rep, err := p.RunJob(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if kill && !k.fired() {
				t.Fatal("the worker was never killed")
			}
			got := campaign.SummaryDigest(rep.Summary)
			t.Logf("distributed: %v, digest %s", time.Since(start), got)
			if got != wantHash {
				t.Fatalf("summary digest %s, want single-process %s", got, wantHash)
			}
			if rep.Summary != want.Summary {
				t.Fatal("summary digest collision without struct equality")
			}
		})
	}
	run("undisturbed", false)
	run("worker-kill", true)
}
