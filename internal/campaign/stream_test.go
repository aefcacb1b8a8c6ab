package campaign

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/par"
	"repro/internal/sim"
)

// exactSummarise is the pre-sketch exact reference reduction (the old
// summarise): full sample arrays through NewDist. Kept in tests as the
// ground truth the sketch path is cross-checked against.
func exactSummarise(results []ScenarioResult) Summary {
	sum := Summary{Scenarios: len(results)}
	var lats, losses, blast, tent, corr, t2c []float64
	for _, r := range results {
		losses = append(losses, r.OutputLoss)
		blast = append(blast, float64(r.FailedTasks))
		tent = append(tent, r.TentativeFrac)
		if r.TentativeFrac > 0 {
			corr = append(corr, r.CorrectedFrac)
		}
		t2c = append(t2c, r.CorrectionDelays...)
		if !r.Recovered {
			sum.Unrecovered++
			continue
		}
		if r.FailedTasks > 0 {
			lats = append(lats, float64(r.WorstLatency))
		}
	}
	sum.Latency = NewDist(lats)
	sum.Loss = NewDist(losses)
	sum.FailedTasks = NewDist(blast)
	sum.TentativeFrac = NewDist(tent)
	sum.CorrectedFrac = NewDist(corr)
	sum.TimeToCorrection = NewDist(t2c)
	return sum
}

// checkDistWithinBound asserts the sketch-path distribution matches
// the exact reference within the documented rank-error bound eps: Max
// bit-identical, Mean within float-reassociation noise, and every
// quantile an actual sample whose rank is within eps*n of the target.
func checkDistWithinBound(t *testing.T, metric string, got, exact Dist, sample []float64, eps float64) {
	t.Helper()
	if len(sample) == 0 {
		if got != (Dist{}) {
			t.Errorf("%s: empty sample but dist %+v", metric, got)
		}
		return
	}
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	if got.Max != exact.Max {
		t.Errorf("%s: max %v, want exact %v", metric, got.Max, exact.Max)
	}
	if d := math.Abs(got.Mean - exact.Mean); d > 1e-9*(math.Abs(exact.Mean)+1) {
		t.Errorf("%s: mean %v, want %v", metric, got.Mean, exact.Mean)
	}
	n := len(sorted)
	slack := int(math.Ceil(eps * float64(n)))
	for _, qv := range []struct {
		q   float64
		got float64
	}{{0.50, got.P50}, {0.95, got.P95}, {0.99, got.P99}} {
		target := int(math.Ceil(qv.q * float64(n)))
		if target < 1 {
			target = 1
		}
		lo := sort.SearchFloat64s(sorted, qv.got)
		hi := sort.Search(n, func(i int) bool { return sorted[i] > qv.got })
		if lo >= hi {
			t.Errorf("%s: q=%v answer %v not in sample", metric, qv.q, qv.got)
			continue
		}
		if lo+1-slack > target || hi+slack < target {
			t.Errorf("%s: q=%v answer %v at ranks [%d,%d], target %d, slack %d",
				metric, qv.q, qv.got, lo+1, hi, target, slack)
		}
	}
}

// syntheticResults draws n plausible scenario results.
func syntheticResults(n int, seed int64) []ScenarioResult {
	rng := rand.New(rand.NewSource(seed))
	out := make([]ScenarioResult, n)
	for i := range out {
		r := &out[i]
		r.Scenario = Scenario{Index: i}
		r.FailedTasks = rng.Intn(20)
		r.Recovered = rng.Float64() < 0.9
		if r.Recovered && r.FailedTasks > 0 {
			r.WorstLatency = sim.Time(1 + 20*rng.Float64()*rng.Float64())
		}
		r.SinkTuples = 1000 + rng.Intn(1000)
		r.OutputLoss = rng.Float64() * rng.Float64()
		if rng.Float64() < 0.7 {
			r.TentativeFrac = rng.Float64()
			r.CorrectedFrac = rng.Float64()
			for d := rng.Intn(5); d > 0; d-- {
				r.CorrectionDelays = append(r.CorrectionDelays, 30*rng.Float64())
			}
		}
	}
	return out
}

// reduceSynthetic pushes pre-computed results through the production
// reduction machinery (streamer + sharded sketch aggregators) on a
// worker pool, exactly as Run does.
func reduceSynthetic(t *testing.T, results []ScenarioResult, workers, shards int) Summary {
	t.Helper()
	aggs := make([]*aggregator, shards)
	for s := range aggs {
		aggs[s] = newAggregator(false)
	}
	block := blockSize(len(results), shards)
	st := newStreamer(64, func(i int, r *ScenarioResult) bool {
		aggs[i/block].add(r)
		return true
	})
	par.Each(len(results), workers, func(i int) {
		st.deliver(i, results[i])
	})
	agg := aggs[0]
	for s := 1; s < shards; s++ {
		agg.merge(aggs[s])
	}
	return agg.summary()
}

// TestShardedReductionCrossCheck runs a 10k-result reduction through
// the sketch path and cross-checks every summary distribution against
// the exact NewDist reference within the documented rank-error bound —
// the acceptance check for sketch accuracy at campaign scale, minus
// the simulation cost.
func TestShardedReductionCrossCheck(t *testing.T) {
	results := syntheticResults(10_000, 42)
	exact := exactSummarise(results)
	sum := reduceSynthetic(t, results, 8, DefaultShards)
	if sum.Scenarios != exact.Scenarios || sum.Unrecovered != exact.Unrecovered {
		t.Fatalf("counts %d/%d, want %d/%d", sum.Scenarios, sum.Unrecovered, exact.Scenarios, exact.Unrecovered)
	}
	var lats, losses, blast, tent, corr, t2c []float64
	for _, r := range results {
		losses = append(losses, r.OutputLoss)
		blast = append(blast, float64(r.FailedTasks))
		tent = append(tent, r.TentativeFrac)
		if r.TentativeFrac > 0 {
			corr = append(corr, r.CorrectedFrac)
		}
		t2c = append(t2c, r.CorrectionDelays...)
		if r.Recovered && r.FailedTasks > 0 {
			lats = append(lats, float64(r.WorstLatency))
		}
	}
	const eps = 2.56 / SketchK // sketch.RankError for the campaign K
	checkDistWithinBound(t, "latency", sum.Latency, exact.Latency, lats, eps)
	checkDistWithinBound(t, "loss", sum.Loss, exact.Loss, losses, eps)
	checkDistWithinBound(t, "failed_tasks", sum.FailedTasks, exact.FailedTasks, blast, eps)
	checkDistWithinBound(t, "tentative", sum.TentativeFrac, exact.TentativeFrac, tent, eps)
	checkDistWithinBound(t, "corrected", sum.CorrectedFrac, exact.CorrectedFrac, corr, eps)
	checkDistWithinBound(t, "t2c", sum.TimeToCorrection, exact.TimeToCorrection, t2c, eps)
}

// TestShardedReductionDeterminism: for a fixed shard count the summary
// is bit-identical at any worker count; the exact aggregates are also
// shard-count-independent.
func TestShardedReductionDeterminism(t *testing.T) {
	results := syntheticResults(5_000, 7)
	base := reduceSynthetic(t, results, 1, 4)
	for _, workers := range []int{2, 8, 16} {
		if got := reduceSynthetic(t, results, workers, 4); got != base {
			t.Fatalf("workers=%d: summary differs from sequential:\n%+v\n%+v", workers, got, base)
		}
	}
	for _, shards := range []int{1, 2, 13} {
		got := reduceSynthetic(t, results, 8, shards)
		if got.Scenarios != base.Scenarios || got.Unrecovered != base.Unrecovered {
			t.Fatalf("shards=%d: counts changed", shards)
		}
		if got.Loss.Max != base.Loss.Max || got.Latency.Max != base.Latency.Max {
			t.Fatalf("shards=%d: exact Max changed", shards)
		}
	}
}

// TestCampaignStreamsInOrder: OnResult observes every scenario exactly
// once, in scenario-index order, while Results stays nil on the
// flat-memory path.
func TestCampaignStreamsInOrder(t *testing.T) {
	env := testEnv(t, "greedy")
	c, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := Generate(c, GenSpec{Seed: 21, Scenarios: 24, Model: KOfRack, Correlation: DefaultCorrelation})
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	rep, err := Run(Config{
		Setup:     env.Setup,
		Scenarios: scenarios,
		Horizon:   90,
		OnResult:  func(r ScenarioResult) { seen = append(seen, r.Scenario.Index) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results != nil {
		t.Fatalf("streaming path retained %d results", len(rep.Results))
	}
	if len(seen) != 24 {
		t.Fatalf("OnResult saw %d of 24 scenarios", len(seen))
	}
	for i, idx := range seen {
		if idx != i {
			t.Fatalf("OnResult order broken at position %d: scenario %d", i, idx)
		}
	}
	if rep.Summary.Scenarios != 24 {
		t.Fatalf("summary covers %d scenarios", rep.Summary.Scenarios)
	}
}

// TestKeepResultsMatchesOnResult: with KeepResults set, Report.Results
// holds exactly the results OnResult received, in the same order — the
// whole campaign when it runs out, the consumed prefix when the stop
// rule fires — correction delays included; without it Results stays
// nil. Either way every result OnResult kept stays intact after the
// run.
func TestKeepResultsMatchesOnResult(t *testing.T) {
	env, err := NewEnv(EnvSpec{Topo: mustTopo(t), Planner: "greedy", Tentative: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	scs, err := Generate(c, GenSpec{Seed: 1, Scenarios: 160, Model: WholeDomain, Correlation: DefaultCorrelation})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		stopTol float64
		want    int
	}{{0, 160}, {10, 80}} {
		for _, keep := range []bool{true, false} {
			var seen, copies []ScenarioResult
			rep, err := Run(Config{
				Setup: env.Setup, Scenarios: scs, Horizon: 90, Workers: 4, Shards: 8,
				StopTol: tc.stopTol, KeepResults: keep,
				OnResult: func(r ScenarioResult) {
					seen = append(seen, r)
					r.CorrectionDelays = slices.Clone(r.CorrectionDelays)
					copies = append(copies, r)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(copies) != tc.want || rep.Stopped != (tc.want < len(scs)) || rep.Summary.Scenarios != tc.want {
				t.Fatalf("StopTol %v, keep %v: %d results, stopped %v, summary of %d; want %d results",
					tc.stopTol, keep, len(copies), rep.Stopped, rep.Summary.Scenarios, tc.want)
			}
			delays := 0
			for _, r := range copies {
				delays += len(r.CorrectionDelays)
			}
			if delays == 0 {
				t.Fatalf("StopTol %v: no correction delays; test misconfigured", tc.stopTol)
			}
			if want := copies; !keep && rep.Results != nil || keep && !reflect.DeepEqual(rep.Results, want) {
				t.Errorf("StopTol %v, keep %v: Report.Results differ from the OnResult sequence", tc.stopTol, keep)
			}
			if !reflect.DeepEqual(seen, copies) {
				t.Errorf("StopTol %v, keep %v: results kept by OnResult changed after the call", tc.stopTol, keep)
			}
		}
	}
}

// heldSource is a source that blocks, until release is closed, once it
// is asked again for a batch it has already generated: once its engine
// has been reset, or it serves a recovery.
type heldSource struct {
	engine.SourceFunc
	last    int
	release <-chan struct{}
}

func (s *heldSource) BatchAt(b int) engine.Batch {
	if b <= s.last {
		<-s.release
	}
	s.last = max(s.last, b)
	return s.SourceFunc.BatchAt(b)
}

// countedOp is an operator that counts its Restore calls.
type countedOp struct {
	engine.OperatorFunc
	restores *atomic.Int64
}

func (o countedOp) Restore(data []byte) error {
	o.restores.Add(1)
	return o.OperatorFunc.Restore(data)
}

// TestCampaignFailFast: a persistently failing Setup aborts the
// campaign promptly — the runner must not drain thousands of remaining
// scenarios before reporting the error. Setup fails from its fourth
// call on, which a worker makes only when it finds no idle engine. So
// that the call is certain however fast a scenario runs, every engine
// is held inside its first scenario after a Reset until the failing
// call has happened: the engine the campaign's set-up builds is then
// held from the first scenario on, each engine a worker builds after
// at most one scenario, and the fourth worker to look for one builds
// it. A scenario starts when the pool resets an engine for it or
// calls Setup for it. Resets are counted through the operators'
// Restore, which Reset calls once per operator task; recovering a task
// calls it too, so the count bounds the starts from above. After the
// failure the pool hands out no engine and calls Setup no more, so
// only the scenarios held or already past the pool finish; the bound
// leaves room for each worker to start a few more. Without the pool's
// failure flag, the workers holding engines keep starting scenarios
// until the failing worker has reported the error, which on a busy
// host can take hundreds; without the runner's stop as well, they
// keep calling Setup for every remaining scenario.
func TestCampaignFailFast(t *testing.T) {
	env := testEnv(t, "")
	c, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := Generate(c, GenSpec{Seed: 3, Scenarios: 5000, Model: SingleNode, Correlation: 0})
	if err != nil {
		t.Fatal(err)
	}
	var restores atomic.Int64
	release := make(chan struct{})
	counted := func() (engine.Setup, error) {
		s, err := env.Setup()
		if err != nil {
			return s, err
		}
		sources := make(map[int]engine.SourceFactory, len(s.Sources))
		for op, f := range s.Sources {
			sources[op] = func(task int) engine.SourceFunc {
				return &heldSource{SourceFunc: f(task), last: -1, release: release}
			}
		}
		operators := make(map[int]engine.OperatorFactory, len(s.Operators))
		for op, f := range s.Operators {
			operators[op] = func(task int) engine.OperatorFunc { return countedOp{f(task), &restores} }
		}
		s.Sources, s.Operators = sources, operators
		return s, nil
	}
	// Calibrate: the Restore calls of one scenario start.
	s, err := counted()
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(s)
	if err != nil {
		t.Fatal(err)
	}
	e.Reset()
	perStart := restores.Swap(0)
	if perStart == 0 {
		t.Fatal("environment has no operator tasks to count starts by")
	}

	const workers = 8
	var calls atomic.Int64
	var failedAt sync.Once
	var restoresAtFailure int64
	setup := func() (engine.Setup, error) {
		if n := calls.Add(1); n > 3 {
			failedAt.Do(func() {
				restoresAtFailure = restores.Load()
				close(release)
			})
			return engine.Setup{}, fmt.Errorf("injected setup failure %d", n)
		}
		return counted()
	}
	_, err = Run(Config{
		Setup:     setup,
		Scenarios: scenarios,
		Horizon:   40,
		Workers:   workers,
	})
	if err == nil {
		t.Fatal("failing campaign returned no error")
	}
	if after := (restores.Load()-restoresAtFailure)/perStart + calls.Load() - 4; after > 8*workers {
		t.Fatalf("campaign started up to %d more of 5000 scenarios after a persistent setup failure, want at most %d", after, 8*workers)
	}
}
