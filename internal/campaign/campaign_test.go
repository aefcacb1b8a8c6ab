package campaign

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// testEnv builds a small, fast campaign environment.
func testEnv(t testing.TB, planner string) *Env {
	t.Helper()
	topo, err := PresetTopology(TopoSmall, 11)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(EnvSpec{Topo: topo, Planner: planner})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestGenerateDeterministicAndShaped(t *testing.T) {
	env := testEnv(t, "")
	c, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range Models {
		spec := GenSpec{Seed: 7, Scenarios: 20, Model: model, Correlation: DefaultCorrelation}
		a, err := Generate(c, spec)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		b, err := Generate(c, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed produced different scenarios", model)
		}
		for _, sc := range a {
			if len(sc.Waves) == 0 {
				t.Fatalf("%s: scenario %d has no waves", model, sc.Index)
			}
			for _, w := range sc.Waves {
				if len(w.Nodes) == 0 {
					t.Fatalf("%s: scenario %d has an empty wave", model, sc.Index)
				}
				if w.At < 30.5 {
					t.Fatalf("%s: wave before FailAt: %v", model, w.At)
				}
			}
			switch model {
			case SingleNode:
				if len(sc.Waves) != 1 || len(sc.Waves[0].Nodes) != 1 {
					t.Fatalf("single-node scenario %d fails %v", sc.Index, sc.Waves)
				}
			case KOfRack, WholeDomain:
				if len(sc.Waves) != 1 {
					t.Fatalf("%s scenario %d has %d waves", model, sc.Index, len(sc.Waves))
				}
				rack := c.DomainOf(sc.Waves[0].Nodes[0])
				rackNodes := map[cluster.NodeID]bool{}
				for _, n := range c.DomainNodes(rack) {
					rackNodes[n] = true
				}
				for _, n := range sc.Waves[0].Nodes {
					if !rackNodes[n] {
						t.Fatalf("%s scenario %d: node %d outside rack %d", model, sc.Index, n, rack)
					}
				}
				if model == WholeDomain && len(sc.Waves[0].Nodes) != len(c.DomainNodes(rack)) {
					t.Fatalf("domain scenario %d fails %d of %d rack nodes", sc.Index, len(sc.Waves[0].Nodes), len(c.DomainNodes(rack)))
				}
			case Cascade:
				for i := 1; i < len(sc.Waves); i++ {
					if sc.Waves[i].At <= sc.Waves[i-1].At {
						t.Fatalf("cascade scenario %d: waves not staggered", sc.Index)
					}
				}
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	env := testEnv(t, "")
	c, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(c, GenSpec{Scenarios: 0}); err == nil {
		t.Error("zero scenarios accepted")
	}
	if _, err := Generate(c, GenSpec{Scenarios: 1, Correlation: 2}); err == nil {
		t.Error("correlation > 1 accepted")
	}
	// A cluster without rack domains only supports SingleNode.
	bare := cluster.New(4, 2)
	if _, err := Generate(bare, GenSpec{Scenarios: 1, Model: WholeDomain}); err == nil {
		t.Error("domain model without rack domains accepted")
	}
	if _, err := Generate(bare, GenSpec{Scenarios: 3, Model: SingleNode}); err != nil {
		t.Errorf("single-node on bare cluster: %v", err)
	}
}

// TestGenerateRejectsBadSpecFields: GenSpec reaches workers as JSON
// and ppastorm fills it from flags, so Generate rejects a negative or
// non-finite time and a NaN probability, naming the field. Accepted,
// a negative FailAt schedules the failure before the clock's start
// and a NaN time or probability compares false against every bound.
func TestGenerateRejectsBadSpecFields(t *testing.T) {
	env := testEnv(t, "")
	c, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		field string
		spec  GenSpec
	}{
		{"FailAt", GenSpec{FailAt: Ptr(sim.Time(-1))}},
		{"FailAt", GenSpec{FailAt: Ptr(sim.Time(nan))}},
		{"FailAt", GenSpec{FailAt: Ptr(sim.Time(inf))}},
		{"JitterS", GenSpec{JitterS: Ptr(-0.5)}},
		{"JitterS", GenSpec{JitterS: Ptr(nan)}},
		{"JitterS", GenSpec{JitterS: Ptr(inf)}},
		{"CascadeLag", GenSpec{CascadeLag: Ptr(sim.Time(-2))}},
		{"CascadeLag", GenSpec{CascadeLag: Ptr(sim.Time(nan))}},
		{"CascadeLag", GenSpec{CascadeLag: Ptr(sim.Time(inf))}},
		{"Correlation", GenSpec{Correlation: nan}},
		{"Tilt", GenSpec{Tilt: nan}},
	}
	for _, tc := range cases {
		spec := tc.spec
		spec.Scenarios, spec.Model = 4, Cascade
		if _, err := Generate(c, spec); err == nil || !strings.Contains(err.Error(), "GenSpec."+tc.field+" ") {
			t.Errorf("%s %+v: err = %v, want an error naming GenSpec.%s", tc.field, tc.spec, err, tc.field)
		}
	}
	zero := GenSpec{Scenarios: 4, Model: Cascade, FailAt: Ptr(sim.Time(0)), JitterS: Ptr(0.0), CascadeLag: Ptr(sim.Time(0))}
	if _, err := Generate(c, zero); err != nil {
		t.Errorf("zero times rejected: %v", err)
	}
}

// TestCampaignDeterministicAcrossWorkers is the determinism acceptance
// check: the same seed yields identical aggregate results whether the
// scenarios run sequentially or on the full worker pool.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	env := testEnv(t, "greedy")
	c, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := Generate(c, GenSpec{Seed: 42, Scenarios: 16, Model: KOfRack, Correlation: DefaultCorrelation})
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Report {
		rep, err := Run(Config{Setup: env.Setup, Scenarios: scenarios, Horizon: 90, Workers: workers, KeepResults: true})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	seq := run(1)
	par := run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel campaign differs from sequential:\nseq: %+v\npar: %+v", seq.Summary, par.Summary)
	}
	again := run(8)
	if !reflect.DeepEqual(par, again) {
		t.Fatal("same seed, same workers produced different reports")
	}
}

func TestCampaignRecoversAndMeasures(t *testing.T) {
	env := testEnv(t, "sa")
	c, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := Generate(c, GenSpec{Seed: 1, Scenarios: 8, Model: WholeDomain, Correlation: DefaultCorrelation})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{Setup: env.Setup, Scenarios: scenarios, Horizon: 150, KeepResults: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 8 {
		t.Fatalf("KeepResults retained %d of 8 results", len(rep.Results))
	}
	if rep.BaselineSinkTuples <= 0 {
		t.Fatal("baseline produced no sink output")
	}
	if rep.Summary.Scenarios != 8 {
		t.Fatalf("summary covers %d scenarios", rep.Summary.Scenarios)
	}
	if rep.Summary.Unrecovered > 0 {
		t.Fatalf("%d of 8 domain scenarios unrecovered by 150s", rep.Summary.Unrecovered)
	}
	if rep.Summary.Latency.Mean <= 0 || rep.Summary.Latency.Max < rep.Summary.Latency.P95 {
		t.Fatalf("implausible latency distribution %+v", rep.Summary.Latency)
	}
	if rep.Summary.FailedTasks.Max <= 0 {
		t.Fatal("domain failures hit no tasks")
	}
	for _, r := range rep.Results {
		if r.OutputLoss < 0 || r.OutputLoss > 1 {
			t.Fatalf("loss %v out of range", r.OutputLoss)
		}
	}
}

// deepChainTopo builds src(2) -> A(2) -> B(2) -> C(1): three operator
// levels below the sources, so whole-rack bursts regularly leave the
// sink two or more hops from a failed task.
func deepChainTopo(t testing.TB) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder()
	src := b.AddSource("src", 2, 1000)
	a := b.AddOperator("A", 2, topology.Independent, 1)
	bb := b.AddOperator("B", 2, topology.Independent, 0.8)
	c := b.AddOperator("C", 1, topology.Independent, 0.8)
	b.Connect(src, a, topology.OneToOne)
	b.Connect(a, bb, topology.Split)
	b.Connect(bb, c, topology.Merge)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestCampaignAccuracyMetrics is the acceptance check of the
// tentative/correction pipeline at campaign scale: a whole-rack burst
// campaign over a three-level topology reports tentative sink output,
// a nonzero corrected fraction with plausible time-to-correction, and
// a failure-free baseline that is firm-only and bit-identical to a run
// without the feature.
func TestCampaignAccuracyMetrics(t *testing.T) {
	topo := deepChainTopo(t)
	env, err := NewEnv(EnvSpec{Topo: topo, Tentative: true})
	if err != nil {
		t.Fatal(err)
	}
	c, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := Generate(c, GenSpec{Seed: 9, Scenarios: 8, Model: WholeDomain, Correlation: DefaultCorrelation})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{Setup: env.Setup, Scenarios: scenarios, Horizon: 150, KeepResults: true})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Run(Config{Setup: env.Setup, Scenarios: scenarios, Horizon: 150, Workers: 1, KeepResults: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, seq) {
		t.Fatalf("accuracy metrics differ across worker counts:\npar: %+v\nseq: %+v", rep.Summary, seq.Summary)
	}
	s := rep.Summary
	if s.TentativeFrac.Max <= 0 {
		t.Fatal("no scenario produced tentative sink output")
	}
	if s.CorrectedFrac.Max <= 0 {
		t.Fatal("no scenario corrected any tentative output")
	}
	if s.TimeToCorrection.P95 <= 0 || s.TimeToCorrection.P50 <= 0 {
		t.Fatalf("implausible time-to-correction distribution %+v", s.TimeToCorrection)
	}
	if s.TimeToCorrection.Max > 150 {
		t.Fatalf("correction delay %v beyond the horizon", s.TimeToCorrection.Max)
	}
	for _, r := range rep.Results {
		if r.OutputLoss < 0 {
			t.Errorf("scenario %d: negative loss %v (sink accounting overcounts)", r.Scenario.Index, r.OutputLoss)
		}
		for _, d := range r.CorrectionDelays {
			if d <= 0 || d > 150 {
				t.Errorf("scenario %d: implausible correction delay %v", r.Scenario.Index, d)
			}
		}
	}

	// The failure-free baseline is unaffected by the pipeline: same
	// volume with the feature on and off, and zero tentative output.
	plain, err := NewEnv(EnvSpec{Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Env{env, plain} {
		setup, err := e.Setup()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := engine.New(setup)
		if err != nil {
			t.Fatal(err)
		}
		eng.Run(150)
		if got := eng.SinkTupleCount(); got != rep.BaselineSinkTuples {
			t.Errorf("failure-free volume %d differs from campaign baseline %d", got, rep.BaselineSinkTuples)
		}
		if acc := eng.AccuracyStats(); acc.TentativeBatches != 0 {
			t.Errorf("failure-free run recorded %d tentative batches", acc.TentativeBatches)
		}
	}
}

func TestRunValidation(t *testing.T) {
	env := testEnv(t, "")
	scs := []Scenario{{}}
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"missing Setup", Config{Scenarios: scs}, "Setup"},
		{"empty scenario list", Config{Setup: env.Setup}, "Scenarios"},
		{"negative horizon", Config{Setup: env.Setup, Scenarios: scs, Horizon: -1}, "Horizon"},
		{"NaN horizon", Config{Setup: env.Setup, Scenarios: scs, Horizon: sim.Time(math.NaN())}, "Horizon"},
		{"infinite horizon", Config{Setup: env.Setup, Scenarios: scs, Horizon: sim.Time(math.Inf(1))}, "Horizon"},
		{"negative baseline", Config{Setup: env.Setup, Scenarios: scs, Baseline: -5}, "Baseline"},
	}
	for _, c := range cases {
		_, err := Run(c.cfg)
		if err == nil {
			t.Errorf("%s accepted", c.name)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %v is not a *ConfigError", c.name, err)
			continue
		}
		if ce.Field != c.field {
			t.Errorf("%s: error names field %q, want %q", c.name, ce.Field, c.field)
		}
		if got := c.cfg.Validate(); got == nil || got.Error() != err.Error() {
			t.Errorf("%s: Validate() = %v, Run error = %v", c.name, got, err)
		}
	}
	if err := (Config{Setup: env.Setup, Scenarios: scs, Horizon: 90}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestParseModel(t *testing.T) {
	for _, m := range Models {
		got, err := ParseModel(m.String())
		if err != nil || got != m {
			t.Errorf("ParseModel(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseModel("meteor"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestPresets(t *testing.T) {
	for _, name := range []string{TopoSmall, TopoMedium, TopoLarge} {
		topo, err := PresetTopology(name, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if topo.NumTasks() == 0 {
			t.Fatalf("%s: empty topology", name)
		}
	}
	if _, err := PresetTopology("galactic", 3); err == nil {
		t.Error("unknown preset accepted")
	}
	if _, err := NewEnv(EnvSpec{}); err == nil {
		t.Error("nil topology accepted")
	}
	topo, _ := PresetTopology(TopoSmall, 3)
	if _, err := NewEnv(EnvSpec{Topo: topo, Planner: "astrology"}); err == nil {
		t.Error("unknown planner accepted")
	}
}

// TestEnvClusterStable verifies the property Run relies on: every
// Cluster() call yields an identical node/domain layout.
func TestEnvClusterStable(t *testing.T) {
	env := testEnv(t, "")
	a, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Nodes()) != len(b.Nodes()) || len(a.Domains()) != len(b.Domains()) {
		t.Fatal("cluster layout not reproducible")
	}
	for _, n := range a.Nodes() {
		if a.DomainOf(n.ID) != b.DomainOf(n.ID) {
			t.Fatalf("node %d attached to different domains across builds", n.ID)
		}
	}
}

var benchSink *Report

// BenchmarkCampaign measures the campaign runner sequentially and on
// the full worker pool; the parallel/sequential ratio is the headline
// scalability number (>2x expected on 4+ cores).
func BenchmarkCampaign(b *testing.B) {
	topo, err := PresetTopology(TopoMedium, 1)
	if err != nil {
		b.Fatal(err)
	}
	env, err := NewEnv(EnvSpec{Topo: topo, Planner: "greedy"})
	if err != nil {
		b.Fatal(err)
	}
	c, err := env.Cluster()
	if err != nil {
		b.Fatal(err)
	}
	scenarios, err := Generate(c, GenSpec{Seed: 5, Scenarios: 32, Model: KOfRack, Correlation: DefaultCorrelation})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := Run(Config{Setup: env.Setup, Scenarios: scenarios, Horizon: 90, Workers: tc.workers})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = rep
			}
		})
	}
}

// BenchmarkAccuracyCampaign runs a small tentative-output campaign and
// reports the answer-quality metrics via b.ReportMetric, so the CI
// bench artifact (BENCH_<sha>.json) carries the tentative/corrected
// fields across commits.
func BenchmarkAccuracyCampaign(b *testing.B) {
	topo := deepChainTopo(b)
	env, err := NewEnv(EnvSpec{Topo: topo, Tentative: true})
	if err != nil {
		b.Fatal(err)
	}
	c, err := env.Cluster()
	if err != nil {
		b.Fatal(err)
	}
	scenarios, err := Generate(c, GenSpec{Seed: 9, Scenarios: 8, Model: WholeDomain, Correlation: DefaultCorrelation})
	if err != nil {
		b.Fatal(err)
	}
	var rep *Report
	for i := 0; i < b.N; i++ {
		rep, err = Run(Config{Setup: env.Setup, Scenarios: scenarios, Horizon: 150})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Summary.TentativeFrac.Mean, "tentative_frac")
	b.ReportMetric(rep.Summary.CorrectedFrac.Mean, "corrected_frac")
	b.ReportMetric(rep.Summary.TimeToCorrection.P95, "t2c_p95_s")
}

func TestEnvWindowKnobsUnified(t *testing.T) {
	topo, err := PresetTopology(TopoSmall, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Config.WindowBatches is the one window knob: it reaches the
	// engine's source-replay window and every operator window.
	env, err := NewEnv(EnvSpec{Topo: topo, Config: engine.Config{WindowBatches: 30}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := env.Setup()
	if err != nil {
		t.Fatal(err)
	}
	if s.Config.WindowBatches != 30 {
		t.Errorf("engine window = %d, want 30", s.Config.WindowBatches)
	}
	for op, f := range s.Operators {
		if w := f(0).(*engine.WindowCountOp).WindowBatches; w != 30 {
			t.Errorf("operator %d window = %d, want 30", op, w)
		}
	}
}

// TestEnvRejectsBadFraction: a replication fraction outside [0, 1] is
// an error, not a silently unreplicated (or fully replicated) plan
// under the planner's name, whether it comes from a local spec or over
// the wire. Zero still selects the 0.3 default.
func TestEnvRejectsBadFraction(t *testing.T) {
	topo, err := PresetTopology(TopoSmall, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{math.NaN(), -0.5, 1.5} {
		if _, err := NewEnv(EnvSpec{Topo: topo, Planner: "sa", Fraction: frac}); err == nil || !strings.Contains(err.Error(), "Fraction") {
			t.Errorf("Fraction %v: error %v, want one naming Fraction", frac, err)
		}
	}
	wire, err := NewWireSpec(EnvSpec{Topo: topo, Planner: "sa", Fraction: -0.5},
		[]GenSpec{{Seed: 1, Scenarios: 2, Model: SingleNode}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.Config(); err == nil {
		t.Error("wire spec with Fraction -0.5 accepted")
	}
	// Greedy spends its whole budget: zero selects 0.3 of the tasks,
	// and 1 replicates every task.
	for _, tc := range []struct {
		frac float64
		want int
	}{{0, int(math.Round(0.3 * float64(topo.NumTasks())))}, {1, topo.NumTasks()}} {
		env, err := NewEnv(EnvSpec{Topo: topo, Planner: "greedy", Fraction: tc.frac})
		if err != nil {
			t.Fatalf("Fraction %v: %v", tc.frac, err)
		}
		active := 0
		for _, st := range env.strategies {
			if st == engine.StrategyActive {
				active++
			}
		}
		if active != tc.want {
			t.Errorf("Fraction %v: %d active tasks, want %d", tc.frac, active, tc.want)
		}
	}
}
