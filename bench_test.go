package repro

// One benchmark per figure of the paper's evaluation (§VI). Each
// benchmark regenerates the figure's full series via the experiment
// drivers and reports the figure's headline quantity as a custom
// metric, so `go test -bench=. -benchmem` re-derives the entire
// evaluation. The figures are also printable as tables with
// cmd/ppabench.

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/plan"
	"repro/internal/randtopo"
	"repro/internal/sim"
	"repro/internal/topology"
)

// reportSeries attaches selected series points as custom benchmark
// metrics (unit suffix chosen by the figure's y-axis).
func reportSeries(b *testing.B, r experiments.Result, unit string, picks map[string]string) {
	for series, x := range picks {
		for _, s := range r.Series {
			if s.Name != series {
				continue
			}
			for _, p := range s.Points {
				if p.X == x {
					b.ReportMetric(p.Y, series+"_"+unit)
				}
			}
		}
	}
}

// BenchmarkFig07SingleNodeRecovery regenerates Fig. 7: recovery latency
// of a single node failure for Active/Checkpoint/Storm techniques over
// the window x rate matrix.
func BenchmarkFig07SingleNodeRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSeries(b, r, "s", map[string]string{
				"Active-5s":      "win:30s rate:2000tps",
				"Checkpoint-30s": "win:30s rate:2000tps",
				"Storm":          "win:30s rate:2000tps",
			})
		}
	}
}

// BenchmarkFig08CorrelatedRecovery regenerates Fig. 8: recovery latency
// of a correlated failure of all 15 processing nodes.
func BenchmarkFig08CorrelatedRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSeries(b, r, "s", map[string]string{
				"Active-5s":      "win:30s rate:2000tps",
				"Checkpoint-30s": "win:30s rate:2000tps",
				"Storm":          "win:30s rate:2000tps",
			})
		}
	}
}

// BenchmarkFig09CheckpointCost regenerates Fig. 9: the CPU cost ratio of
// checkpoint maintenance vs normal processing across intervals.
func BenchmarkFig09CheckpointCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSeries(b, r, "ratio", map[string]string{
				"1000_tuples/s": "1s",
				"2000_tuples/s": "1s",
			})
		}
	}
}

// BenchmarkFig10PPARecovery regenerates Fig. 10 (both subfigures):
// correlated-failure recovery latency under PPA-1.0 / PPA-0.5 / PPA-0
// replication plans.
func BenchmarkFig10PPARecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, rate := range []int{1000, 2000} {
			r, err := experiments.Fig10(rate)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 && rate == 1000 {
				reportSeries(b, r, "s", map[string]string{
					"PPA-1.0":        "30s",
					"PPA-0.5-active": "30s",
					"PPA-0.5":        "30s",
					"PPA-0":          "30s",
				})
			}
		}
	}
}

// BenchmarkFig12MetricValidation regenerates Fig. 12 (Q1 and Q2): the
// OF and IC metric values against the actual accuracy of tentative
// outputs.
func BenchmarkFig12MetricValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		q1, err := experiments.Fig12Q1()
		if err != nil {
			b.Fatal(err)
		}
		q2, err := experiments.Fig12Q2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSeries(b, q1, "q1", map[string]string{"OF": "0.4", "OF-SA-Accuracy": "0.4"})
			reportSeries(b, q2, "q2", map[string]string{"IC": "0.4", "IC-SA-Accuracy": "0.4"})
		}
	}
}

// BenchmarkFig13AlgorithmComparison regenerates Fig. 13 (Q1 and Q2):
// plans by DP, SA and Greedy with their OF and actual accuracy.
func BenchmarkFig13AlgorithmComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		q1, err := experiments.Fig13Q1()
		if err != nil {
			b.Fatal(err)
		}
		q2, err := experiments.Fig13Q2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSeries(b, q1, "q1", map[string]string{"DP-OF": "0.4", "SA-OF": "0.4", "Greedy-OF": "0.4"})
			reportSeries(b, q2, "q2", map[string]string{"DP-OF": "0.4", "SA-OF": "0.4", "Greedy-OF": "0.4"})
		}
	}
}

// fig14Topologies is the number of random topologies per variant in the
// Fig. 14 benchmarks (the paper uses 100; cmd/ppabench defaults to 100,
// the benchmark uses a smaller fleet to keep -bench runs minutes-scale).
const fig14Topologies = 25

// BenchmarkFig14aWorkloadSkew regenerates Fig. 14(a): SA vs Greedy OF on
// random topologies with uniform vs Zipfian task workloads.
func BenchmarkFig14aWorkloadSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14a(fig14Topologies)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSeries(b, r, "of", map[string]string{"SA-zipf": "0.2", "Greedy-zipf": "0.2"})
		}
	}
}

// BenchmarkFig14bParallelism regenerates Fig. 14(b): parallelisation
// degree ranges 1-10 vs 10-20.
func BenchmarkFig14bParallelism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14b(fig14Topologies)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSeries(b, r, "of", map[string]string{"SA-para:10~20": "0.2", "Greedy-para:10~20": "0.2"})
		}
	}
}

// BenchmarkFig14cFullPartitioning regenerates Fig. 14(c): structured vs
// full topologies.
func BenchmarkFig14cFullPartitioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14c(fig14Topologies)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSeries(b, r, "of", map[string]string{"SA-Structure": "0.4", "SA-Full": "0.4"})
		}
	}
}

// BenchmarkFig14dJoinFraction regenerates Fig. 14(d): join-operator
// fractions 0 vs 50% on identical topologies.
func BenchmarkFig14dJoinFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14d(fig14Topologies)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportSeries(b, r, "of", map[string]string{"SA-NoJoin": "0.4", "SA-Join-50%": "0.4"})
		}
	}
}

// --- Planner benchmarks (not tied to a paper figure) ---

// benchSizes are the random-topology sizes of the planner-comparison
// benchmark: small is brute-force/DP territory, medium is the paper's
// §VI-C baseline, large stresses the sub-topology machinery.
var benchSizes = []struct {
	name           string
	minOps, maxOps int
	minPar, maxPar int
}{
	{"small", 4, 4, 1, 3},
	{"medium", 5, 10, 1, 10},
	{"large", 12, 16, 5, 15},
}

func benchTopology(b *testing.B, minOps, maxOps, minPar, maxPar int) *topology.Topology {
	spec := randtopo.DefaultSpec(4242)
	spec.MinOps, spec.MaxOps = minOps, maxOps
	spec.MinPar, spec.MaxPar = minPar, maxPar
	topo, err := randtopo.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	return topo
}

// BenchmarkPlanners compares every planner on small/medium/large random
// topologies at a 40% replication budget. A fresh context per iteration
// makes each measurement a full cold planning run. Planners that cannot
// handle a size (DP past its state cap, brute force past 24 tasks) are
// skipped.
func BenchmarkPlanners(b *testing.B) {
	for _, name := range []string{"greedy", "full", "structured", "sa", "dp", "brute"} {
		pl, ok := plan.Lookup(name)
		if !ok {
			b.Fatalf("planner %q not registered", name)
		}
		for _, size := range benchSizes {
			topo := benchTopology(b, size.minOps, size.maxOps, size.minPar, size.maxPar)
			budget := 2 * topo.NumTasks() / 5
			b.Run(name+"/"+size.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ctx := plan.NewContext(topo)
					p, err := pl.Plan(ctx, budget)
					if err != nil {
						b.Skipf("%s on %s: %v", name, size.name, err)
					}
					if i == 0 {
						b.ReportMetric(ctx.OF(p), "of")
						b.ReportMetric(float64(topo.NumTasks()), "tasks")
					}
				}
			})
		}
	}
}

// BenchmarkCorrObjective measures the correlation-aware planning
// objective: a domain-correlated failure distribution is sampled from
// the standard campaign cluster for the medium topology, and each
// iteration runs a cold sa-corr plan (seed plan + hill-climbing under
// the expected-OF objective, each move scored by its delta to the
// current plan). The reported "corr_of" is the expected OF of the
// returned plan — the headline quality number of the *-corr planner
// family.
func BenchmarkCorrObjective(b *testing.B) {
	topo := benchTopology(b, 5, 10, 1, 10)
	env, err := campaign.NewEnv(campaign.EnvSpec{Topo: topo})
	if err != nil {
		b.Fatal(err)
	}
	scenarios, err := env.CorrelationSet(32, 1)
	if err != nil {
		b.Fatal(err)
	}
	budget := 2 * topo.NumTasks() / 5
	pl := plan.MustLookup("sa-corr")
	for i := 0; i < b.N; i++ {
		ctx := plan.NewContext(topo)
		if err := ctx.SetScenarios(scenarios); err != nil {
			b.Fatal(err)
		}
		p, err := pl.Plan(ctx, budget)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(ctx.CorrObjective(p), "corr_of")
			b.ReportMetric(float64(scenarios.Len()), "distinct_scenarios")
		}
	}
}

// BenchmarkCorrPlanPresets measures the planning layer of a campaign
// set-up: the *-corr plans campaign.NewEnv computes for the medium and
// large presets (topology seed 1, fraction 0.3, the environment's
// CorrelationSet(24, 1)), each iteration on a cold context. sweep-medium
// plans medium/sa-corr. "corr_of" is the plan's expected OF.
func BenchmarkCorrPlanPresets(b *testing.B) {
	for _, preset := range []string{campaign.TopoMedium, campaign.TopoLarge} {
		topo, err := campaign.PresetTopology(preset, 1)
		if err != nil {
			b.Fatal(err)
		}
		env, err := campaign.NewEnv(campaign.EnvSpec{Topo: topo})
		if err != nil {
			b.Fatal(err)
		}
		scenarios, err := env.CorrelationSet(24, 1)
		if err != nil {
			b.Fatal(err)
		}
		budget, err := plan.Budget(topo.NumTasks(), 0.3)
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{"sa-corr", "structured-corr"} {
			pl := plan.MustLookup(name)
			b.Run(preset+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ctx := plan.NewContext(topo)
					if err := ctx.SetScenarios(scenarios); err != nil {
						b.Fatal(err)
					}
					p, err := pl.Plan(ctx, budget)
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						b.ReportMetric(ctx.CorrObjective(p), "corr_of")
						b.ReportMetric(float64(scenarios.Len()), "distinct_scenarios")
					}
				}
			})
		}
	}
}

// --- Engine / campaign hot-path benchmarks ---

// hotPathEnv builds the standard hot-path benchmark environment: the
// medium preset topology under the greedy plan with tentative outputs.
func hotPathEnv(b *testing.B) *campaign.Env {
	topo, err := campaign.PresetTopology(campaign.TopoMedium, 1)
	if err != nil {
		b.Fatal(err)
	}
	env, err := campaign.NewEnv(campaign.EnvSpec{Topo: topo, Planner: "greedy", Tentative: true})
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkEngineHotPath measures one failure-free engine simulation
// end to end (setup, 60 virtual seconds of batches, checkpoints and
// trims). Run with -benchmem: allocs/op is the headline number of the
// allocation-free kernel + dense task-state work, and CI gates on it.
func BenchmarkEngineHotPath(b *testing.B) {
	env := hotPathEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := env.Setup()
		if err != nil {
			b.Fatal(err)
		}
		e, err := engine.New(s)
		if err != nil {
			b.Fatal(err)
		}
		e.Run(60)
		if e.SinkTupleCount() == 0 {
			b.Fatal("no sink output")
		}
	}
}

// retainedHeap forces a collection and returns the live heap, for the
// bytes_retained metric.
func retainedHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// BenchmarkCampaignThroughput measures Monte-Carlo campaign throughput
// in scenarios/sec: a domain+cascade campaign over the medium topology
// on the full worker pool, the regime every evaluation figure is
// regenerated in. Alongside allocs/op it reports bytes_retained — live
// heap growth across the benchmark after a forced collection — the
// peak-memory guard for the streaming aggregation path: per-scenario
// retention shows up here long before it ooms a million-scenario
// sweep. CI gates on both.
func BenchmarkCampaignThroughput(b *testing.B) {
	env := hotPathEnv(b)
	sample, err := env.Cluster()
	if err != nil {
		b.Fatal(err)
	}
	var scs []campaign.Scenario
	for _, m := range []campaign.Model{campaign.WholeDomain, campaign.Cascade} {
		s, err := campaign.Generate(sample, campaign.GenSpec{
			Seed:        7,
			Scenarios:   8,
			Model:       m,
			Correlation: campaign.DefaultCorrelation,
		})
		if err != nil {
			b.Fatal(err)
		}
		scs = append(scs, s...)
	}
	baseline := 0
	b.ReportAllocs()
	before := retainedHeap()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := campaign.Run(campaign.Config{
			Setup:     env.Setup,
			Scenarios: scs,
			Horizon:   90,
			Baseline:  baseline,
		})
		if err != nil {
			b.Fatal(err)
		}
		baseline = rep.BaselineSinkTuples
	}
	b.StopTimer()
	retained := retainedHeap() - before
	if retained < 0 {
		retained = 0
	}
	b.ReportMetric(retained, "bytes_retained")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*len(scs))/secs, "scenarios/s")
	}
}

// BenchmarkTiltedCascadeCampaign measures the importance-sampled
// rare-cascade campaign: a weakly correlated cascade model whose
// multi-rack bursts are rare under plain Monte-Carlo, sampled at a
// tilted join probability with per-scenario likelihood-ratio weights.
// Alongside raw scenarios/s it reports effective_samples/s — the
// effective sample size of the loss estimate per wall-clock second —
// the statistical throughput the tilt buys. benchjson -check gates
// effective_samples/s >= scenarios/s: the tilt must not increase
// variance.
func BenchmarkTiltedCascadeCampaign(b *testing.B) {
	// Checkpoint-only recovery over two-rack zones, with a long cascade
	// lag and a horizon that lets every single-rack burst recover
	// completely: the output loss is then a genuine rare event — zero
	// unless the cascade spreads — which is the regime importance
	// sampling is built for. Under this tilt the campaign's ESS is
	// several times its scenario count.
	topo, err := campaign.PresetTopology(campaign.TopoMedium, 1)
	if err != nil {
		b.Fatal(err)
	}
	env, err := campaign.NewEnv(campaign.EnvSpec{
		Topo:      topo,
		Tentative: true,
		Layout:    cluster.Layout{Zones: 4, RacksPerZone: 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	sample, err := env.Cluster()
	if err != nil {
		b.Fatal(err)
	}
	scs, err := campaign.Generate(sample, campaign.GenSpec{
		Seed:        7,
		Scenarios:   48,
		Model:       campaign.Cascade,
		Correlation: 0.05,
		CascadeLag:  campaign.Ptr(sim.Time(12)),
		CRN:         true,
		Tilt:        5,
	})
	if err != nil {
		b.Fatal(err)
	}
	baseline := 0
	var ess float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := campaign.Run(campaign.Config{
			Setup:     env.Setup,
			Scenarios: scs,
			Horizon:   70,
			Baseline:  baseline,
		})
		if err != nil {
			b.Fatal(err)
		}
		baseline = rep.BaselineSinkTuples
		ess = rep.Summary.ESS
	}
	b.StopTimer()
	b.ReportMetric(ess, "effective_samples")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*len(scs))/secs, "scenarios/s")
		b.ReportMetric(ess*float64(b.N)/secs, "effective_samples/s")
	}
}

// BenchmarkPairedSweep quantifies the common-random-numbers win on a
// placement head-to-head at equal simulation budget: the 95% CI
// half-width of the mean output-loss delta between anti-affinity and
// round-robin placement, estimated (a) paired on CRN scenarios and
// (b) from two independent campaigns. Reported as paired_ci_w,
// indep_ci_w and ci_width_ratio (indep/paired); benchjson -check gates
// the ratio at >= 2, i.e. CRN pairing reaches a target half-width with
// at least 4x fewer scenarios.
func BenchmarkPairedSweep(b *testing.B) {
	env := hotPathEnv(b)
	sample, err := env.Cluster()
	if err != nil {
		b.Fatal(err)
	}
	const n = 24
	gen := func(seed int64) []campaign.Scenario {
		scs, err := campaign.Generate(sample, campaign.GenSpec{
			Seed:        seed,
			Scenarios:   n,
			Model:       campaign.KOfRack,
			Correlation: campaign.DefaultCorrelation,
			CRN:         true,
		})
		if err != nil {
			b.Fatal(err)
		}
		return scs
	}
	runCell := func(scs []campaign.Scenario, placement cluster.PlacementPolicy, baseline int, obs func(campaign.ScenarioResult)) int {
		rep, err := campaign.Run(campaign.Config{
			Setup:     env.SetupFor(placement),
			Scenarios: scs,
			Horizon:   90,
			Baseline:  baseline,
			OnResult:  obs,
		})
		if err != nil {
			b.Fatal(err)
		}
		return rep.BaselineSinkTuples
	}
	shared := gen(7)
	indepA, indepB := gen(101), gen(202)
	var pairedW, indepW float64
	baseline := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Paired: both cells replay the same CRN draws.
		pair := campaign.NewPaired(n)
		baseline = runCell(shared, cluster.PlacementAntiAffinity, baseline, func(r campaign.ScenarioResult) {
			pair.ObserveBase(r.Scenario.Index, r.OutputLoss)
		})
		baseline = runCell(shared, cluster.PlacementRoundRobin, baseline, func(r campaign.ScenarioResult) {
			pair.ObserveOther(r.Scenario.Index, r.OutputLoss)
		})
		pairedW = pair.Summary().MeanCI
		// Independent: same budget, distinct seeds per cell.
		var lossA, lossB []float64
		baseline = runCell(indepA, cluster.PlacementAntiAffinity, baseline, func(r campaign.ScenarioResult) {
			lossA = append(lossA, r.OutputLoss)
		})
		baseline = runCell(indepB, cluster.PlacementRoundRobin, baseline, func(r campaign.ScenarioResult) {
			lossB = append(lossB, r.OutputLoss)
		})
		indepW = unpairedDeltaCI(lossA, lossB)
	}
	b.StopTimer()
	b.ReportMetric(pairedW, "paired_ci_w")
	b.ReportMetric(indepW, "indep_ci_w")
	if pairedW > 0 {
		b.ReportMetric(indepW/pairedW, "ci_width_ratio")
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N*4*n)/secs, "scenarios/s")
	}
}

// unpairedDeltaCI is the 95% CI half-width of mean(b) - mean(a) for
// two independent samples (Welch, z-approximation).
func unpairedDeltaCI(a, b []float64) float64 {
	varOf := func(xs []float64) float64 {
		if len(xs) < 2 {
			return 0
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		return ss / float64(len(xs)-1)
	}
	se := math.Sqrt(varOf(a)/float64(len(a)) + varOf(b)/float64(len(b)))
	return 1.9599639845400545 * se
}
