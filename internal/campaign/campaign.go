package campaign

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"

	"repro/internal/engine"
	"repro/internal/sim"
)

// Config describes one campaign: N scenarios run as independent engine
// simulations against instances of the same environment. The runner
// keeps one engine per worker: it runs each new engine through the
// failure-free prefix every scenario shares — up to just before the
// earliest wave the call runs — marks it there (engine.Mark), and
// engine.Reset()s it back onto that image between scenarios instead of
// rebuilding the environment and re-simulating the prefix. A reset
// engine runs bit-identically to a fresh Setup run from time zero, so
// results do not depend on which worker (or which engine) ran a
// scenario.
type Config struct {
	// Setup returns a fresh engine setup for one simulation. It must be
	// safe for concurrent calls and must rebuild anything a run mutates
	// (in particular the cluster — failure flags are per-run state);
	// the node IDs and failure-domain layout must be identical across
	// calls so that scenario node sets stay meaningful. The source and
	// operator factories must return equivalent fresh instances on
	// every call, and operator Restore must reproduce a Snapshot —
	// engine reuse resets engines onto their image through both.
	Setup func() (engine.Setup, error)
	// Scenarios to execute, typically from Generate.
	Scenarios []Scenario
	// Horizon is the virtual run time of each simulation (default 120s).
	Horizon sim.Time
	// Workers bounds the worker pool; <=0 selects GOMAXPROCS, 1 runs
	// sequentially. Results stream into the reduction shards in
	// scenario-index order, so the campaign is deterministic for a
	// given seed and shard count regardless of Workers.
	Workers int
	// Shards is the number of reduction shards. The scenario index
	// space is cut into Shards contiguous blocks of ceil(N/Shards)
	// scenarios: scenario i folds (in index order) into the summary
	// sketches of shard i/blockSize, and the shards merge in shard
	// order into the final Summary. Block ownership makes every shard's
	// state a pure function of (scenario list, Shards) alone — a
	// contiguous scenario range owns whole shards, which is what lets a
	// distributed campaign (Partition/RunRangeContext/MergeShardStates)
	// reproduce the single-process Summary bit for bit. The summary
	// therefore depends on the shard count — fix it alongside the seed
	// for bit-reproducible reports — but never on Workers or on how
	// ranges were assigned to processes. <= 0 selects DefaultShards.
	Shards int
	// KeepResults retains every ScenarioResult in Report.Results. Off
	// by default: the streaming aggregation needs only O(Workers +
	// Shards) memory however many scenarios run, which is what makes
	// million-scenario sweeps possible; turning this on restores the
	// old linear-memory behaviour for callers that post-process
	// individual scenarios.
	KeepResults bool
	// OnResult, when set, receives every scenario result in strict
	// scenario-index order as soon as the reduction frontier reaches
	// it — the streaming alternative to KeepResults (per-scenario CSV
	// rows, progress reporting). It is called serially under the
	// reducer lock: keep it fast, and do not call back into the
	// campaign. Unless KeepResults is set, the result's
	// CorrectionDelays slice is pooled and only valid during the call.
	OnResult func(ScenarioResult)
	// Baseline is the failure-free sink-tuple volume the loss metric is
	// measured against; 0 runs one baseline simulation. The baseline
	// depends only on Setup and Horizon, so sweeps sharing both (e.g.
	// the same planner over several burst models or placements) pass
	// the BaselineSinkTuples of their first Report to the later cells
	// instead of re-running it.
	Baseline int
	// StopTol > 0 enables CI-driven early stopping: the campaign halts
	// once the 95% confidence half-width of its p95 output-loss
	// estimate falls to StopTol or below. The rule is checked only at
	// shard-block boundaries over the merged prefix of completed
	// shards (see StopMonitor), so the decision is deterministic and a
	// distributed run stops at exactly the same scenario as a
	// single-process one. A stopped Report sets Stopped; its Summary
	// and Results, like the OnResult calls, cover that prefix only
	// (scenarios already started past it are discarded). Scenario-level
	// execution (RunRangeContext) ignores the field — a worker sees
	// only its own range; stop decisions belong to whoever merges.
	StopTol float64
}

// ScenarioResult is the outcome of one simulated scenario.
type ScenarioResult struct {
	Scenario Scenario
	// FailedTasks is the number of primary tasks hit by the scenario.
	FailedTasks int
	// Recovered reports whether every failed task caught up with its
	// pre-failure progress before the horizon.
	Recovered bool
	// WorstLatency is the maximum per-task recovery latency (detection
	// to catch-up, §VI) — the completion time of the whole recovery.
	// Only meaningful when Recovered.
	WorstLatency sim.Time
	// SinkTuples is the output volume observed at the sinks.
	SinkTuples int
	// OutputLoss is the relative output deficit vs the failure-free
	// baseline. Sink accounting deduplicates replayed batches, so the
	// loss needs no clamping.
	OutputLoss float64
	// TentativeFrac is the share of sink tuples first emitted tentative
	// (computed from incomplete input anywhere upstream). Requires
	// engine.Config.TentativeOutputs (EnvSpec.Tentative).
	TentativeFrac float64
	// CorrectedFrac is the share of tentative sink batches corrected by
	// the post-recovery amendment layer before the horizon.
	CorrectedFrac float64
	// CorrectionDelays are the per-batch times (virtual seconds) from
	// tentative emission to correction. On the streaming path (Config.
	// KeepResults off) the backing array is pooled: inside a
	// Config.OnResult callback the slice is valid only for the
	// duration of the call.
	CorrectionDelays []float64
}

// Dist summarises a sample distribution.
type Dist struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// NewDist computes the summary of a sample (nearest-rank percentiles).
// The zero Dist is returned for an empty sample.
func NewDist(xs []float64) Dist {
	if len(xs) == 0 {
		return Dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum float64
	for _, x := range s {
		sum += x
	}
	pick := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	return Dist{
		Mean: sum / float64(len(s)),
		P50:  pick(0.50),
		P95:  pick(0.95),
		P99:  pick(0.99),
		Max:  s[len(s)-1],
	}
}

// Summary aggregates a campaign.
type Summary struct {
	Scenarios   int `json:"scenarios"`
	Unrecovered int `json:"unrecovered"`
	// ESS is the effective sample size of the loss estimate: exactly
	// Scenarios for an unweighted campaign, and the variance-ratio
	// effective count for an importance-sampled one — the number of
	// plain Monte-Carlo scenarios that would estimate the mean loss
	// equally well. A well-tilted rare-event campaign reports
	// ESS > Scenarios; that surplus is the statistical speedup the
	// effective_samples_per_s benchmark metric measures.
	ESS float64 `json:"effective_samples"`
	// Latency summarises the worst-task recovery latency (seconds) of
	// the scenarios that fully recovered.
	Latency Dist `json:"latency_s"`
	// Loss summarises the relative output loss of every scenario.
	Loss Dist `json:"output_loss"`
	// FailedTasks summarises the blast radius (failed primary tasks per
	// scenario).
	FailedTasks Dist `json:"failed_tasks"`
	// TentativeFrac summarises the per-scenario share of sink tuples
	// first emitted tentative; CorrectedFrac the share of tentative
	// sink batches corrected before the horizon, over the scenarios
	// that produced tentative output at all. Both are zero unless the
	// environment enables tentative outputs.
	TentativeFrac Dist `json:"tentative_fraction"`
	CorrectedFrac Dist `json:"corrected_fraction"`
	// TimeToCorrection summarises the per-batch correction delays
	// (seconds), pooled over every scenario of the campaign.
	TimeToCorrection Dist `json:"time_to_correction_s"`
}

// Report is the full outcome of one campaign.
type Report struct {
	// Results holds the per-scenario outcomes only when
	// Config.KeepResults was set; the streaming default leaves it nil.
	Results []ScenarioResult
	Summary Summary
	// BaselineSinkTuples is the failure-free output volume the loss
	// metric is measured against.
	BaselineSinkTuples int
	// Stopped reports that the campaign halted early under
	// Config.StopTol: the Summary covers the executed shard prefix,
	// not the full scenario list. False on an exhausted run (even one
	// whose final CI would have satisfied the tolerance).
	Stopped bool
}

// ConfigError reports one invalid Config field from Validate: which
// field, and why. Errors returned by Run/RunContext/Partition/
// RunRangeContext for configuration mistakes unwrap to this type.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("campaign: invalid Config.%s: %s", e.Field, e.Reason)
}

// Validate checks the configuration and returns a *ConfigError naming
// the first invalid field, or nil. Run, RunContext, Partition and
// RunRangeContext all validate with it, so configuration mistakes
// surface the same typed error on every execution path.
func (cfg Config) Validate() error {
	switch {
	case cfg.Setup == nil:
		return &ConfigError{"Setup", "no engine setup factory"}
	case len(cfg.Scenarios) == 0:
		return &ConfigError{"Scenarios", "no scenarios"}
	case cfg.Horizon < 0:
		return &ConfigError{"Horizon", fmt.Sprintf("negative horizon %v", cfg.Horizon)}
	case math.IsNaN(float64(cfg.Horizon)) || math.IsInf(float64(cfg.Horizon), 1):
		return &ConfigError{"Horizon", fmt.Sprintf("non-finite horizon %v", float64(cfg.Horizon))}
	case cfg.Baseline < 0:
		return &ConfigError{"Baseline", fmt.Sprintf("negative baseline volume %d", cfg.Baseline)}
	case cfg.StopTol < 0:
		return &ConfigError{"StopTol", fmt.Sprintf("negative stop tolerance %v", cfg.StopTol)}
	}
	return nil
}

// resolved returns the config with defaulted execution parameters
// (horizon, worker count, shard count) filled in.
func (cfg Config) resolved() Config {
	if cfg.Horizon == 0 {
		cfg.Horizon = 120
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	return cfg
}

// prepare is the set-up step every execution path shares: it validates
// cfg and the range r of scenarios the call runs, fills in cfg's
// defaults, builds the engine pool marked just before r's earliest wave
// and resolves the baseline volume — the explicit Config.Baseline, or
// one baseline simulation whose engine seeds the pool.
func prepare(cfg Config, r Range) (Config, *enginePool, int, error) {
	if err := cfg.Validate(); err != nil {
		return cfg, nil, 0, err
	}
	cfg = cfg.resolved()
	n := len(cfg.Scenarios)
	if err := r.validate(n, blockSize(n, cfg.Shards)); err != nil {
		return cfg, nil, 0, err
	}
	pool := &enginePool{
		setup: cfg.Setup,
		free:  make(chan *engine.Engine, cfg.Workers),
		mark:  markTime(cfg.Scenarios[r.Lo:r.Hi], cfg.Horizon),
	}
	if cfg.Baseline > 0 {
		return cfg, pool, cfg.Baseline, nil
	}
	baseline, err := runOne(pool, nil, cfg.Horizon, false)
	if err != nil {
		return cfg, nil, 0, fmt.Errorf("campaign: baseline run: %w", err)
	}
	baseline.release()
	return cfg, pool, baseline.res.SinkTuples, nil
}

// markTime returns the instant the engines of a call are marked at: the
// largest time before the earliest wave of the scenarios, or before the
// horizon when no wave comes sooner. Nothing scheduled at the wave's
// own instant has fired by then, so the waves a scenario schedules
// after Reset still fire first among the events of that instant, as
// they do in a run from time zero.
func markTime(scs []Scenario, horizon sim.Time) sim.Time {
	t := horizon
	for i := range scs {
		for _, w := range scs[i].Waves {
			t = min(t, w.At)
		}
	}
	return sim.Time(math.Nextafter(float64(t), math.Inf(-1)))
}

// enginePool is the engine free list of one Run or RunRange call: a
// buffered channel with room for one engine per worker. A worker takes
// any idle engine and resets it onto its image — every engine of the
// call is marked at the same instant, so they are interchangeable — or
// builds a fresh one when none is idle yet, running it through the
// failure-free prefix to the mark.
type enginePool struct {
	setup func() (engine.Setup, error)
	free  chan *engine.Engine
	mark  sim.Time
}

func (p *enginePool) get() (*engine.Engine, error) {
	select {
	case e := <-p.free:
		e.Reset()
		return e, nil
	default:
	}
	s, err := p.setup()
	if err != nil {
		return nil, err
	}
	e, err := engine.New(s)
	if err != nil {
		return nil, err
	}
	e.Run(p.mark)
	if err := e.Mark(); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *enginePool) put(e *engine.Engine) {
	select {
	case p.free <- e:
	default:
	}
}

// BaselineVolume returns the campaign's failure-free baseline sink
// volume without running any scenarios: Config.Baseline when set,
// otherwise the volume of one baseline simulation. The coordinator of
// a distributed campaign calls it once and ships the volume to every
// worker, so all ranges measure loss against the same baseline the
// single-process run would use.
func BaselineVolume(cfg Config) (int, error) {
	_, _, base, err := prepare(cfg, Range{0, len(cfg.Scenarios)})
	return base, err
}

// Run executes the campaign: one failure-free baseline simulation, then
// every scenario on the worker pool, streaming results in scenario
// order into sharded quantile-sketch accumulators (see Config.Shards).
// For a fixed Config (same scenarios, same Setup semantics, same shard
// count) the report is identical regardless of Workers. Memory stays
// flat in the scenario count unless KeepResults is set. A scenario
// error aborts the campaign promptly (remaining scenarios are not
// started) and Run returns the error of the smallest failing index.
func Run(cfg Config) (*Report, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: once ctx is done no further
// scenario is started (simulations already in flight finish first) and
// the context's error is returned — unless a scenario failed before
// the cancellation, in which case that error wins. The coordinator's
// per-worker cancel, a caller's timeout, and fail-fast abort all share
// this one mechanism. With Config.StopTol set, the reducer observes
// each shard block as it closes it and stops the pool once the stop
// rule fires; the report then covers the shard prefix up to that
// block, and whatever started, failed or was cancelled past it is
// discarded.
func RunContext(ctx context.Context, cfg Config) (*Report, error) {
	cfg, pool, base, err := prepare(cfg, Range{0, len(cfg.Scenarios)})
	if err != nil {
		return nil, err
	}
	mon := NewStopMonitor(cfg)
	aggs, results, err := runShards(ctx, cfg, Range{0, len(cfg.Scenarios)}, pool, base, mon)
	if err != nil {
		return nil, err
	}
	if mon.Fired() {
		aggs = aggs[:mon.StopShard()+1]
		if cfg.KeepResults {
			results = results[:mon.PrefixScenarios()]
		}
	}
	agg := aggs[0]
	for _, b := range aggs[1:] {
		agg.merge(b)
	}
	return &Report{
		Results:            results,
		Summary:            agg.summary(),
		BaselineSinkTuples: base,
		Stopped:            mon.Fired(),
	}, nil
}

// runOne executes one simulation with the given failure waves on an
// engine from the pool — reset onto the pool's image, or built and run
// to it — and returns the engine to the pool afterwards. With keep
// false the correction delays land in a pooled buffer (released by
// entry.release once the reducer streamed them into the
// time-to-correction sketch) instead of a fresh allocation per
// scenario.
func runOne(pool *enginePool, waves []Wave, horizon sim.Time, keep bool) (entry, error) {
	e, err := pool.get()
	if err != nil {
		return entry{}, err
	}
	for _, w := range waves {
		e.ScheduleNodeFailures(w.Nodes, w.At)
	}
	e.Run(horizon)
	defer pool.put(e)
	out := entry{res: ScenarioResult{Recovered: true, SinkTuples: e.SinkTupleCount()}}
	res := &out.res
	acc := e.AccuracyStats()
	res.TentativeFrac = acc.TentativeFraction()
	res.CorrectedFrac = acc.CorrectedFraction()
	if n := len(acc.CorrectionDelays); n > 0 {
		if keep {
			res.CorrectionDelays = make([]float64, 0, n)
		} else {
			out.box = delayPool.Get().(*[]float64)
			res.CorrectionDelays = (*out.box)[:0]
		}
		for _, d := range acc.CorrectionDelays {
			res.CorrectionDelays = append(res.CorrectionDelays, float64(d))
		}
	}
	for _, st := range e.RecoveryStats() {
		res.FailedTasks++
		if !st.Recovered {
			res.Recovered = false
			continue
		}
		if lat := st.RecoveredAt - st.DetectedAt; lat > res.WorstLatency {
			res.WorstLatency = lat
		}
	}
	return out, nil
}
