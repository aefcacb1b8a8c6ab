package coord

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
)

// stopSpec builds a campaign whose stop rule deterministically fires
// before the scenario space is exhausted: a generous tolerance and
// enough shards that the first eligible checkpoint (the min-sample
// guard needs 64 scenarios, and the p95 interval needs ~74 to be
// bounded at all) lands well before the last block.
func stopSpec(t testing.TB, scenarios int, tol float64) campaign.WireSpec {
	t.Helper()
	spec := testSpec(t, scenarios)
	spec.Shards = 8
	spec.StopTol = tol
	return spec
}

// TestEarlyStopMatchesSingleProcess: with early stopping enabled, the
// distributed run stops at the same shard checkpoint as the
// single-process run and merges to the exact same stopped Summary.
func TestEarlyStopMatchesSingleProcess(t *testing.T) {
	spec := stopSpec(t, 120, 10) // fires at the first eligible checkpoint
	want := localRun(t, spec)
	if !want.Stopped {
		t.Fatal("reference run did not stop early; the spec's tolerance should guarantee it")
	}
	if want.Summary.Scenarios >= 120 {
		t.Fatalf("stopped reference ran all %d scenarios", want.Summary.Scenarios)
	}

	p := NewPool(PoolOptions{})
	defer p.Close()
	addServedWorker(t, p)
	addServedWorker(t, p)
	waitReady(t, p, 2)

	rep, err := p.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stopped {
		t.Fatal("distributed run did not report Stopped")
	}
	if rep.Summary != want.Summary {
		t.Fatalf("stopped distributed summary differs from single-process:\n%+v\n%+v", rep.Summary, want.Summary)
	}
	if got, want := campaign.SummaryDigest(rep.Summary), campaign.SummaryDigest(want.Summary); got != want {
		t.Fatalf("stopped summary digest %s, want %s", got, want)
	}
}

// TestStoppedCellSchedulesNoFurtherRanges is the regression test for
// the job loop's stop path: once the stop rule fires, the pending
// ranges are dropped and the coordinator assigns zero further ranges.
// A single scripted worker executes ranges synchronously in assignment
// order, so the assign count is deterministic: exactly the ranges of
// the stopped prefix.
func TestStoppedCellSchedulesNoFurtherRanges(t *testing.T) {
	spec := stopSpec(t, 120, 10)
	// 8 ranges of one 15-scenario shard block each: the monitor's first
	// eligible checkpoint is shard 4 (75 scenarios ≥ the 64-sample
	// guard with a bounded p95 interval), so exactly 5 ranges may ever
	// be assigned.
	var assigns atomic.Int32
	p := NewPool(PoolOptions{RangesPerWorker: 8})
	defer p.Close()
	addRangeWorker(t, p, func(c *conn, m *message, cfg campaign.Config) {
		assigns.Add(1)
		_ = c.send(runRange(t, m, cfg))
	})
	waitReady(t, p, 1)

	rep, err := p.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stopped {
		t.Fatal("job did not stop early")
	}
	if rep.Summary.Scenarios != 75 {
		t.Fatalf("stopped summary covers %d scenarios, want 75", rep.Summary.Scenarios)
	}
	if got := assigns.Load(); got != 5 {
		t.Fatalf("%d ranges assigned, want exactly 5 (none after the stop fired)", got)
	}
}

// TestStopIgnoresFailuresPastPrefix: once the stop rule fires the job
// ends with the stopped prefix, as campaign.RunContext does: a range
// past the prefix that fails afterwards does not fail the job. Two
// scripted workers run the ranges of the prefix (scenarios below 75)
// and answer every later range with an error 200 ms after the whole
// prefix was answered.
func TestStopIgnoresFailuresPastPrefix(t *testing.T) {
	spec := stopSpec(t, 120, 10) // 8 blocks of 15; the rule fires after block 4
	want := localRun(t, spec)

	var answered atomic.Int32
	prefixDone := make(chan struct{})
	p := NewPool(PoolOptions{})
	defer p.Close()
	for i := 0; i < 2; i++ {
		addRangeWorker(t, p, func(c *conn, m *message, cfg campaign.Config) {
			if m.Range.Lo >= 75 {
				<-prefixDone
				time.Sleep(200 * time.Millisecond)
				_ = c.send(&message{Type: msgError, Job: m.Job, Error: "injected failure past the stopped prefix"})
				return
			}
			_ = c.send(runRange(t, m, cfg))
			if answered.Add(1) == 5 {
				close(prefixDone)
			}
		})
	}
	waitReady(t, p, 2)

	rep, err := p.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stopped || rep.Summary != want.Summary {
		t.Fatalf("stopped=%v summary:\n%+v\nwant the single-process stopped summary:\n%+v", rep.Stopped, rep.Summary, want.Summary)
	}
}

// TestWeightedCRNDistributedMatches: a campaign with CRN substreams
// and a tilted cascade sampler — the full variance-reduction stack —
// still merges bit-identically to the single-process run, weighted
// summaries, ESS and all.
func TestWeightedCRNDistributedMatches(t *testing.T) {
	topo, err := campaign.PresetTopology(campaign.TopoSmall, 11)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := campaign.NewWireSpec(campaign.EnvSpec{Topo: topo, Planner: "greedy", Tentative: true}, []campaign.GenSpec{
		{Seed: 5, Scenarios: 12, Model: campaign.KOfRack, Correlation: 0.1, CRN: true, Tilt: 4},
		{Seed: 5, Scenarios: 12, Model: campaign.Cascade, Correlation: 0.1, CRN: true, Tilt: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	spec.Horizon = 60
	spec.Shards = 4
	want := localRun(t, spec)
	if want.Summary.ESS == float64(want.Summary.Scenarios) {
		t.Fatal("tilted campaign reported the unweighted ESS; weights did not reach the aggregator")
	}

	p := NewPool(PoolOptions{})
	defer p.Close()
	addServedWorker(t, p)
	addServedWorker(t, p)
	waitReady(t, p, 2)

	rep, err := p.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary != want.Summary {
		t.Fatalf("weighted distributed summary differs from single-process:\n%+v\n%+v", rep.Summary, want.Summary)
	}
}
