package campaign

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/topology"
)

// smallCluster builds the small preset's cluster, the substrate of the
// generation-level variance tests. The explicit multi-rack layout
// gives Cascade sibling racks to spread to (the default small layout
// has one rack per zone, which would leave the tilt nothing to act
// on).
func smallCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	topo, err := PresetTopology(TopoSmall, 11)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(EnvSpec{Topo: topo, Planner: "greedy", Layout: cluster.Layout{Zones: 2, RacksPerZone: 3}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCRNPairingIdenticalAcrossPlanners is the CRN property test: two
// campaign cells that differ in planner and replica placement — the
// head-to-head axes — draw bit-identical failure scenarios (waves,
// labels, weights) from the same CRN seed, because scenario i is a
// pure function of (Seed, i) and the identically laid-out cluster.
func TestCRNPairingIdenticalAcrossPlanners(t *testing.T) {
	topo, err := PresetTopology(TopoSmall, 11)
	if err != nil {
		t.Fatal(err)
	}
	spec := GenSpec{Seed: 99, Scenarios: 64, Model: Cascade, Correlation: 0.3, CRN: true, Tilt: 3}
	var first []Scenario
	for _, planner := range []string{"greedy", "sa-corr"} {
		for _, placement := range cluster.PlacementPolicies {
			env, err := NewEnv(EnvSpec{Topo: topo, Planner: planner, Placement: placement})
			if err != nil {
				t.Fatal(err)
			}
			c, err := env.Cluster()
			if err != nil {
				t.Fatal(err)
			}
			scs, err := Generate(c, spec)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = scs
				continue
			}
			if !reflect.DeepEqual(scs, first) {
				t.Fatalf("%s/%s drew different CRN scenarios than the first cell", planner, placement)
			}
		}
	}
}

// TestCRNSubstreamProperties: CRN scenarios are derived per index, not
// sequentially, so a campaign prefix regenerates bit-identically at
// any campaign size — the property that lets distributed ranges
// regenerate scenarios without substream offsets.
func TestCRNSubstreamProperties(t *testing.T) {
	c := smallCluster(t)
	spec := GenSpec{Seed: 7, Scenarios: 40, Model: KOfRack, Correlation: 0.4, CRN: true}
	a, err := Generate(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Prefix stability: a shorter campaign over the same seed is an
	// exact prefix — the property that lets distributed ranges
	// regenerate scenarios without substream offsets.
	short := spec
	short.Scenarios = 17
	b, err := Generate(c, short)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a[:17], b) {
		t.Fatal("CRN scenarios are not prefix-stable in the campaign size")
	}
	// Replays are bit-identical.
	a2, err := Generate(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, a2) {
		t.Fatal("CRN generation is not reproducible")
	}
	// Untilted generation carries unit weights on both RNG paths.
	for _, sc := range a {
		if sc.Weight != 1 {
			t.Fatalf("untilted CRN scenario %d has weight %v, want 1", sc.Index, sc.Weight)
		}
	}
}

// burstSize is the estimand of the reweighting cross-check: the number
// of distinct nodes a scenario fails.
func burstSize(sc Scenario) float64 {
	n := 0
	for _, w := range sc.Waves {
		n += len(w.Nodes)
	}
	return float64(n)
}

// TestReweightedMeanMatchesMonteCarlo10k is the importance-sampling
// property test: over 10k scenarios, the tilted sampler's
// self-normalised reweighted mean burst size must agree with the
// plain Monte-Carlo mean under the nominal correlation within their
// combined confidence intervals, for both tilted models.
func TestReweightedMeanMatchesMonteCarlo10k(t *testing.T) {
	c := smallCluster(t)
	const n = 10_000
	for _, model := range []Model{KOfRack, Cascade} {
		plain, err := Generate(c, GenSpec{Seed: 3, Scenarios: n, Model: model, Correlation: 0.15, CRN: true})
		if err != nil {
			t.Fatal(err)
		}
		tilted, err := Generate(c, GenSpec{Seed: 4, Scenarios: n, Model: model, Correlation: 0.15, CRN: true, Tilt: 6})
		if err != nil {
			t.Fatal(err)
		}
		var mcSum, mcSS float64
		for _, sc := range plain {
			x := burstSize(sc)
			mcSum += x
			mcSS += x * x
		}
		mcMean := mcSum / n
		mcSD := math.Sqrt(mcSS/n - mcMean*mcMean)

		var sw, swx, sw2, swDev2 float64
		for _, sc := range tilted {
			x := burstSize(sc)
			sw += sc.Weight
			swx += sc.Weight * x
			sw2 += sc.Weight * sc.Weight
		}
		isMean := swx / sw
		for _, sc := range tilted {
			d := burstSize(sc) - isMean
			swDev2 += sc.Weight * sc.Weight * d * d
		}
		// Delta-method SE of the self-normalised estimator plus the MC
		// SE; 4 sigma keeps the deterministic check far from flaking
		// while still catching any systematic likelihood-ratio bug.
		isSE := math.Sqrt(swDev2) / sw
		mcSE := mcSD / math.Sqrt(n)
		tol := 4 * (isSE + mcSE)
		if diff := math.Abs(isMean - mcMean); diff > tol {
			t.Fatalf("%s: reweighted mean %v vs MC mean %v differ by %v (> %v): likelihood ratios are biased",
				model, isMean, mcMean, diff, tol)
		}
		// The tilted sampler must actually over-draw large bursts.
		if isMeanRaw := func() float64 {
			var s float64
			for _, sc := range tilted {
				s += burstSize(sc)
			}
			return s / n
		}(); isMeanRaw <= mcMean {
			t.Fatalf("%s: tilted raw mean burst %v not above nominal %v; tilt had no effect", model, isMeanRaw, mcMean)
		}
	}
}

// TestWeightedCampaignDeterministicAcrossWorkers pins the acceptance
// bit: with CRN, tilting and early stopping all enabled, the stopped
// report is identical across worker counts. The reducer stops the
// stream at the stop block while scenarios past it may still be in
// flight, so the test also pins per-result delivery: Results and the
// OnResult calls both cover exactly the stopped prefix 0..P-1, in
// order.
func TestWeightedCampaignDeterministicAcrossWorkers(t *testing.T) {
	topo, err := PresetTopology(TopoSmall, 11)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(EnvSpec{Topo: topo, Planner: "greedy", Tentative: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	scs, err := Generate(c, GenSpec{Seed: 17, Scenarios: 120, Model: Cascade, Correlation: 0.1, CRN: true, Tilt: 4})
	if err != nil {
		t.Fatal(err)
	}
	var summary, report string
	for _, workers := range []int{1, runtime.GOMAXPROCS(0), 3} {
		var seen []int
		rep, err := Run(Config{
			Setup:       env.Setup,
			Scenarios:   scs,
			Horizon:     60,
			Workers:     workers,
			Shards:      8,
			StopTol:     10, // fires at the first eligible checkpoint
			KeepResults: true,
			OnResult:    func(r ScenarioResult) { seen = append(seen, r.Scenario.Index) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Stopped {
			t.Fatalf("workers=%d: stop rule did not fire; the test tolerance should guarantee it", workers)
		}
		p := rep.Summary.Scenarios
		if p >= len(scs) {
			t.Fatalf("workers=%d: stopped run covers %d of %d scenarios", workers, p, len(scs))
		}
		if len(rep.Results) != p || len(seen) != p {
			t.Fatalf("workers=%d: %d results and %d OnResult calls, want the %d-scenario prefix", workers, len(rep.Results), len(seen), p)
		}
		for i := 0; i < p; i++ {
			if rep.Results[i].Scenario.Index != i || seen[i] != i {
				t.Fatalf("workers=%d: position %d holds result %d and OnResult call %d", workers, i, rep.Results[i].Scenario.Index, seen[i])
			}
		}
		if summary == "" {
			summary, report = SummaryDigest(rep.Summary), ReportDigest(rep)
			continue
		}
		if got := SummaryDigest(rep.Summary); got != summary {
			t.Fatalf("workers=%d: summary digest %s, want %s", workers, got, summary)
		}
		if got := ReportDigest(rep); got != report {
			t.Fatalf("workers=%d: report digest %s, want %s", workers, got, report)
		}
	}
}

// TestStopMonitorContract covers the monitor's ordering rules: shard
// states must arrive in order, nothing is accepted after the fire, and
// the nil monitor never fires.
func TestStopMonitorContract(t *testing.T) {
	var nilMon *StopMonitor
	if nilMon.Fired() || nilMon.StopShard() != -1 || nilMon.PrefixScenarios() != 0 {
		t.Fatal("nil monitor must behave as the never-stopping monitor")
	}
	if !math.IsInf(nilMon.HalfWidth(), 1) {
		t.Fatal("nil monitor half-width must be +Inf")
	}

	env, err := NewEnv(EnvSpec{Topo: mustTopo(t), Planner: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	scs, err := Generate(c, GenSpec{Seed: 1, Scenarios: 160, Model: SingleNode})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Setup: env.Setup, Scenarios: scs, Shards: 8, StopTol: 10}
	if NewStopMonitor(Config{Setup: env.Setup, Scenarios: scs, Shards: 8}) != nil {
		t.Fatal("StopTol=0 must yield a nil monitor")
	}
	mon := NewStopMonitor(cfg)
	mk := func(shard, scenarios int) ShardState {
		a := newAggregator(false)
		for i := 0; i < scenarios; i++ {
			a.add(&ScenarioResult{Recovered: true, OutputLoss: 0.25})
		}
		st, err := a.state(shard)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if err := mon.Observe(mk(1, 20)); err == nil {
		t.Fatal("out-of-order shard accepted")
	}
	for s := 0; s < 8; s++ {
		if mon.Fired() {
			break
		}
		if err := mon.Observe(mk(s, 20)); err != nil {
			t.Fatal(err)
		}
	}
	if !mon.Fired() {
		t.Fatal("constant-loss campaign never satisfied a huge tolerance")
	}
	// Constant loss: zero half-width at the first eligible checkpoint
	// (80 scenarios ≥ the 64-sample guard), stop shard 3.
	if mon.StopShard() != 3 || mon.PrefixScenarios() != 80 {
		t.Fatalf("fired at shard %d after %d scenarios, want shard 3 after 80", mon.StopShard(), mon.PrefixScenarios())
	}
	if err := mon.Observe(mk(4, 20)); err == nil {
		t.Fatal("state accepted after the stop rule fired")
	}
}

func mustTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := PresetTopology(TopoSmall, 11)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestPairedSummaryStats checks the paired-difference accumulator on a
// hand-computable sample.
func TestPairedSummaryStats(t *testing.T) {
	p := NewPaired(4)
	base := []float64{1, 2, 3, 4}
	other := []float64{1.5, 2.5, 3.5, 10}
	for i := range base {
		p.ObserveBase(i, base[i])
		p.ObserveOther(i, other[i])
	}
	// Index observed by one side only must be excluded.
	p.ObserveBase(5, 100)
	s := p.Summary()
	if s.N != 4 {
		t.Fatalf("N = %d, want 4", s.N)
	}
	// Deltas: 0.5, 0.5, 0.5, 6 → mean 1.875, p50 = 0.5, p95 = 6.
	if math.Abs(s.MeanDelta-1.875) > 1e-12 {
		t.Fatalf("MeanDelta = %v, want 1.875", s.MeanDelta)
	}
	if s.DeltaP50 != 0.5 || s.DeltaP95 != 6 {
		t.Fatalf("DeltaP50/DeltaP95 = %v/%v, want 0.5/6", s.DeltaP50, s.DeltaP95)
	}
	if s.MeanCI <= 0 {
		t.Fatalf("MeanCI = %v, want > 0", s.MeanCI)
	}
	if empty := NewPaired(3).Summary(); empty != (PairedSummary{}) {
		t.Fatalf("empty paired summary = %+v, want zero", empty)
	}
}
