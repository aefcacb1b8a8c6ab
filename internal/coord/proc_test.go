package coord

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"testing"
	"time"

	"repro/internal/campaign"
)

// workerProcEnv re-executes the test binary as a protocol worker on
// its stdio: TestMain intercepts the variable before any test runs, so
// AddProcess(os.Executable()) spawns real worker processes without a
// separate binary. Set to "doomed", the worker exits at its fourth
// assign frame, with that range in flight, as a worker killed in the
// middle of a sweep would.
const workerProcEnv = "PPA_COORD_WORKER_PROC"

func TestMain(m *testing.M) {
	if role := os.Getenv(workerProcEnv); role != "" {
		in := io.Reader(os.Stdin)
		if role == "doomed" {
			pr, pw := io.Pipe()
			go exitAtFourthAssign(os.Stdin, pw)
			in = pr
		}
		if err := ServeWorker(context.Background(), in, os.Stdout, WorkerOptions{}); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// exitAtFourthAssign copies the coordinator's frames to w and exits
// the process when the fourth assign frame arrives.
func exitAtFourthAssign(r io.Reader, w *io.PipeWriter) {
	br := bufio.NewReader(r)
	assigns := 0
	for {
		frame, err := br.ReadBytes('\n')
		if bytes.HasPrefix(frame, []byte(`{"type":"assign"`)) {
			if assigns++; assigns == 4 {
				os.Exit(3)
			}
		}
		if _, werr := w.Write(frame); werr != nil || err != nil {
			w.CloseWithError(err)
			return
		}
	}
}

// spawnWorkers adds n re-executed worker processes to the pool, the
// first of them doomed when doomed is set, and waits for their
// handshakes.
func spawnWorkers(t testing.TB, p *Pool, n int, doomed bool) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		role := "1"
		if doomed && i == 0 {
			role = "doomed"
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), workerProcEnv+"="+role)
		if err := p.AddProcess(cmd); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.WaitReady(ctx, n); err != nil {
		t.Fatal(err)
	}
}

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
			spawnWorkers(t, p, n, false)
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

// TestDistributedWorkerKill: one of two worker processes dies
// mid-sweep, at its fourth of about 8 ranges; its in-flight range is
// reassigned to the survivor and the campaign still completes with the
// bit-identical summary.
func TestDistributedWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	spec := testSpec(t, 400)
	spec.Shards = 16 // one range per shard block: 16 ranges
	want := localRun(t, spec)

	p := NewPool(PoolOptions{RangesPerWorker: 8})
	defer p.Close()
	spawnWorkers(t, p, 2, true)
	rep, err := p.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if live := p.Live(); live != 1 {
		t.Fatalf("Live() = %d after the job, want 1: the doomed worker did not die", live)
	}
	if rep.Summary != want.Summary {
		t.Fatalf("summary differs after worker kill:\n%+v\n%+v", rep.Summary, want.Summary)
	}
}

// TestDistributedSmoke10k is the CI multi-process smoke (gated behind
// PPA_DIST_SMOKE=1, minutes-long): a 10k-scenario campaign through a
// coordinator and 2 local worker processes must match the
// single-process summary digest exactly — once undisturbed, and once
// with one worker exiting mid-sweep at its fourth assignment.
func TestDistributedSmoke10k(t *testing.T) {
	if os.Getenv("PPA_DIST_SMOKE") == "" {
		t.Skip("set PPA_DIST_SMOKE=1 to run the multi-process smoke")
	}
	spec := testSpec(t, 10_000)
	spec.Shards = 16 // one range per shard block: 16 ranges
	start := time.Now()
	want := localRun(t, spec)
	wantHash := campaign.SummaryDigest(want.Summary)
	t.Logf("single-process reference: %v, digest %s", time.Since(start), wantHash)

	run := func(name string, kill bool) {
		t.Run(name, func(t *testing.T) {
			p := NewPool(PoolOptions{RangesPerWorker: 8})
			defer p.Close()
			spawnWorkers(t, p, 2, kill)
			start := time.Now()
			rep, err := p.RunJob(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if kill && p.Live() != 1 {
				t.Fatal("the doomed worker did not die")
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
