package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/sim"
)

// drive executes scenarios by calling the layers' public functions in
// the order campaign.Run calls them for one worker: engine.New for the
// first scenario and Reset for the rest, ScheduleNodeFailures per wave,
// Run to the first wave and then to the horizon, the result accessors,
// Add into the shard's six sketches, and at every shard-block boundary
// the marshal, unmarshal and merge a coordinator does, plus the stop
// monitor's Observe. With a nil tracer it records nothing.
type drive struct {
	tr      *tracer
	setup   func() (engine.Setup, error)
	horizon sim.Time
	base    int
	block   int
	n       int
	mon     *campaign.StopMonitor

	eng     *engine.Engine
	cur     *sketchSet
	merged  *sketchSet
	states  []campaign.ShardState
	results []campaign.ScenarioResult

	adds, sinkTuples, stateBytes, blocks, stopBlocks int
}

func newDrive(tr *tracer, cfg campaign.Config, base int, stopTol float64) *drive {
	shards := cfg.Shards
	if shards <= 0 {
		shards = campaign.DefaultShards
	}
	n := len(cfg.Scenarios)
	weighted := false
	for _, sc := range cfg.Scenarios {
		if sc.Weight != 0 && sc.Weight != 1 {
			weighted = true
		}
	}
	mcfg := cfg
	mcfg.StopTol = stopTol
	return &drive{
		tr: tr, setup: cfg.Setup, horizon: cfg.Horizon, base: base,
		block: (n + shards - 1) / shards, n: n,
		mon: campaign.NewStopMonitor(mcfg),
		cur: newSketchSet(weighted), merged: newSketchSet(weighted),
	}
}

func (d *drive) scenario(i int, sc campaign.Scenario) error {
	tr := d.tr
	s := tr.begin("scenario", i)
	if d.eng == nil {
		sp := tr.begin("engine.new", i)
		st, err := d.setup()
		if err != nil {
			return err
		}
		if d.eng, err = engine.New(st); err != nil {
			return err
		}
		tr.end(sp)
	} else {
		sp := tr.begin("engine.reset", i)
		d.eng.Reset()
		tr.end(sp)
	}
	sp := tr.begin("engine.schedule", i)
	for _, w := range sc.Waves {
		d.eng.ScheduleNodeFailures(w.Nodes, w.At)
	}
	tr.end(sp)
	at := d.horizon
	if len(sc.Waves) > 0 {
		at = sc.Waves[0].At
	}
	sp = tr.begin("engine.run_prefail", i)
	d.eng.Run(at)
	tr.end(sp)
	sp = tr.begin("engine.run_postfail", i)
	d.eng.Run(d.horizon)
	tr.end(sp)
	sp = tr.begin("engine.stats", i)
	res := scenarioResult(d.eng, sc, d.base)
	tr.end(sp)
	d.results = append(d.results, res)
	d.sinkTuples += res.SinkTuples
	sp = tr.begin("sketch.add", i)
	d.adds += d.cur.add(&res)
	tr.end(sp)
	if (i+1)%d.block == 0 || i+1 == d.n {
		if err := d.closeBlock(i); err != nil {
			return err
		}
	}
	tr.end(s)
	return nil
}

// closeBlock serialises the finished shard block, decodes it again and
// merges it, as the coordinator of a distributed campaign would, and
// feeds its state to the stop monitor until the monitor fires.
func (d *drive) closeBlock(i int) error {
	tr := d.tr
	b := tr.begin("campaign.block", i)
	sp := tr.begin("sketch.marshal", i)
	st, err := d.cur.state(i / d.block)
	if err != nil {
		return err
	}
	tr.end(sp)
	for _, p := range sketchBytes(&st) {
		d.stateBytes += len(*p)
	}
	sp = tr.begin("sketch.unmarshal", i)
	dec, err := decodeSketchSet(&st)
	if err != nil {
		return err
	}
	tr.end(sp)
	sp = tr.begin("sketch.merge", i)
	d.merged.merge(dec)
	tr.end(sp)
	if !d.mon.Fired() {
		sp = tr.begin("campaign.stop_observe", i)
		err := d.mon.Observe(st)
		tr.end(sp)
		if err != nil {
			return err
		}
		d.stopBlocks++
	}
	d.states = append(d.states, st)
	d.blocks++
	d.cur = newSketchSet(d.cur.weighted)
	tr.end(b)
	return nil
}

// scenarioResult reads a finished engine the way the campaign runner
// does.
func scenarioResult(e *engine.Engine, sc campaign.Scenario, base int) campaign.ScenarioResult {
	res := campaign.ScenarioResult{Scenario: sc, Recovered: true, SinkTuples: e.SinkTupleCount()}
	acc := e.AccuracyStats()
	res.TentativeFrac = acc.TentativeFraction()
	res.CorrectedFrac = acc.CorrectedFraction()
	if len(acc.CorrectionDelays) > 0 {
		res.CorrectionDelays = make([]float64, len(acc.CorrectionDelays))
		for k, dl := range acc.CorrectionDelays {
			res.CorrectionDelays[k] = float64(dl)
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
	if base > 0 {
		res.OutputLoss = 1 - float64(res.SinkTuples)/float64(base)
	}
	return res
}

// tracedOptions sizes the traced run.
type tracedOptions struct {
	// scenarios is how many scenarios of the first cell run in the
	// single-threaded baseline and the two direct drives.
	scenarios int
	// chunk is how many scenarios one measured pass runs before the
	// next takes its turn.
	chunk int
	// coordJobs is how many RunJob calls measure the coordinator.
	coordJobs int
	// repeats is the sample count of the set-up style timings
	// (engine.New, Generate, WireSpec.Config, failure-free runs).
	repeats int
}

var defaultTraced = tracedOptions{scenarios: 200, chunk: 20, coordJobs: 3, repeats: 11}

// tracedResult is everything the traced run measured.
type tracedResult struct {
	metrics []metric
	events  []traceEvent
	attr    []attrRow
}

// tracedRun takes the first scenarios of the workload's first cell and
// runs them three ways on one goroutine, taking turns every chunk:
// campaign.Run with Workers=1 and KeepResults, the untraced direct
// drive, and the traced direct drive. It then measures the coordinator
// through two recorded worker processes. ph is the
// end-to-end phase run just before; its runtime counters and first-cell
// rate enter the per-layer metrics.
func tracedRun(ctx context.Context, p *prepared, st setupTimes, ph *phase, seed int64, o tracedOptions) (*tracedResult, error) {
	w := p.w
	c := w.Cells[0]
	pl := p.planned[c.Planner]
	spec, err := w.envSpec(p.topo, c)
	if err != nil {
		return nil, err
	}
	gen, err := w.genSpec(c, roundSeed(seed, 0))
	if err != nil {
		return nil, err
	}
	n := o.scenarios
	small := gen
	small.Scenarios = n

	var genTimes []time.Duration
	var scs []campaign.Scenario
	for k := 0; k < o.repeats; k++ {
		t0 := time.Now()
		if scs, err = campaign.Generate(pl.sample, small); err != nil {
			return nil, err
		}
		genTimes = append(genTimes, time.Since(t0))
	}
	setupFn := pl.env.SetupFor(spec.Placement)
	var newTimes []time.Duration
	for k := 0; k < o.repeats; k++ {
		t0 := time.Now()
		s, err := setupFn()
		if err != nil {
			return nil, err
		}
		if _, err := engine.New(s); err != nil {
			return nil, err
		}
		newTimes = append(newTimes, time.Since(t0))
	}

	cfg := campaign.Config{
		Setup: setupFn, Scenarios: scs, Horizon: sim.Time(w.Horizon),
		Workers: 1, Shards: w.Shards, Baseline: pl.base, KeepResults: true,
	}
	// An unmeasured reference pass: both drives must reproduce its
	// per-scenario results and its summary. It also grows the heap back
	// after the forced collection that ended the end-to-end phase (see
	// calibrate), so that no measured pass pays for that.
	ref, err := campaign.Run(cfg)
	if err != nil {
		return nil, err
	}

	// The stop rule's cost is measured on every workload; the cascade
	// workload's own tolerance is used where the workload sets none.
	stopTol := w.StopTol
	if stopTol == 0 {
		stopTol = 1e-5
	}
	tr := newTracer(n * 16)
	plain := newDrive(nil, cfg, pl.base, stopTol)
	traced := newDrive(tr, cfg, pl.base, stopTol)
	// The three measured passes take turns chunk by chunk, so drift in
	// the host's speed and the live heap (both drives' engines) are the
	// same for all three.
	var w1Wall, plainWall, tracedWall time.Duration
	for lo := 0; lo < n; lo += o.chunk {
		hi := min(lo+o.chunk, n)
		part := cfg
		part.Scenarios = scs[lo:hi]
		t0 := time.Now()
		if _, err := campaign.Run(part); err != nil {
			return nil, err
		}
		w1Wall += time.Since(t0)
		t0 = time.Now()
		for i := lo; i < hi; i++ {
			if err := plain.scenario(i, scs[i]); err != nil {
				return nil, err
			}
		}
		plainWall += time.Since(t0)
		t0 = time.Now()
		for i := lo; i < hi; i++ {
			if err := traced.scenario(i, scs[i]); err != nil {
				return nil, err
			}
		}
		tracedWall += time.Since(t0)
	}

	// The failure-free interval after each scenario's first wave.
	var basePost []float64
	for k := 0; k < o.repeats && k < n; k++ {
		at := sim.Time(w.Horizon)
		if len(scs[k].Waves) > 0 {
			at = scs[k].Waves[0].At
		}
		plain.eng.Reset()
		plain.eng.Run(at)
		t0 := time.Now()
		plain.eng.Run(sim.Time(w.Horizon))
		basePost = append(basePost, float64(time.Since(t0)))
	}

	refDigest := campaign.ReportDigest(ref)
	for name, d := range map[string]*drive{"untraced": plain, "traced": traced} {
		got := campaign.ReportDigest(&campaign.Report{Results: d.results, BaselineSinkTuples: ref.BaselineSinkTuples})
		var errs []error
		if got != refDigest {
			errs = append(errs, fmt.Errorf("per-scenario digest %s, campaign.Run %s", got, refDigest))
		}
		ph.check(name+" direct drive vs campaign.Run", errs)
	}
	ph.check("direct-drive shard states vs campaign.Run summary", func() []error {
		sum, err := campaign.MergeShardStates(traced.states)
		if err != nil {
			return []error{err}
		}
		if got, want := campaign.SummaryDigest(sum), campaign.SummaryDigest(ref.Summary); got != want {
			return []error{fmt.Errorf("merged digest %s, campaign.Run %s", got, want)}
		}
		return nil
	}())

	// The coordinator runs the whole first cell on dist-small, where its
	// costs are the workload's; elsewhere it runs the traced scenarios
	// only, which keeps the traced run short: a cascade job whose stop
	// rule fires still finishes its in-flight 750-scenario ranges.
	jobGen := small
	if w.Dist {
		jobGen = gen
	}
	var wireTimes []time.Duration
	var wire campaign.WireSpec
	for k := 0; k < min(o.repeats, 5); k++ {
		t0 := time.Now()
		if wire, err = campaign.NewWireSpec(spec, []campaign.GenSpec{jobGen}); err != nil {
			return nil, err
		}
		if _, err := wire.Config(); err != nil {
			return nil, err
		}
		wireTimes = append(wireTimes, time.Since(t0))
	}
	wire.Horizon = sim.Time(w.Horizon)
	wire.Workers = 1
	wire.Shards = w.Shards
	wire.Baseline = pl.base
	wire.StopTol = w.StopTol
	cm, coordEvents, err := coordRun(ctx, wire, ph, o.coordJobs, tr.epoch)
	if err != nil {
		return nil, err
	}

	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	dist := func(name string) campaign.Dist { return campaign.NewDist(tr.durations(name)) }
	median := func(name string) float64 { return campaign.NewDist(tr.durations(name)).P50 }
	var engB, engN uint64
	var covered time.Duration
	for _, s := range tr.spans {
		if strings.HasPrefix(s.name, "engine.") {
			engB += s.allocB
			engN += s.allocN
		}
		if s.name == "scenario" {
			covered += s.end - s.start
		}
	}
	reset, pre, post, stats := dist("engine.reset"), dist("engine.run_prefail"), dist("engine.run_postfail"), dist("engine.stats")
	basePostMed := campaign.NewDist(basePost).P50
	fn := float64(n)

	var c0n int
	var c0wall float64
	for _, cr := range ph.cells {
		if cr.Cell == 0 {
			c0n += cr.Scenarios
			c0wall += cr.WallS
		}
	}
	w1Rate := fn / w1Wall.Seconds()

	out := []metric{
		{"campaign.new_env_ms", ms(medianDur(st.newEnv)), "ms"},
		{"campaign.baseline_ms", ms(medianDur(st.baseline)), "ms"},
		{"campaign.generate_us", float64(medianDur(genTimes)) / 1e3 / fn, "us"},
		{"campaign.wire_config_ms", ms(medianDur(wireTimes)), "ms"},
		{"campaign.runner_overhead_frac", 1 - plainWall.Seconds()/w1Wall.Seconds(), "ratio"},
		{"campaign.parallel_efficiency", float64(c0n) / c0wall / (poolSize * w1Rate), "ratio"},
		{"campaign.stop_observe_us", median("campaign.stop_observe") / 1e3, "us"},
		{"campaign.stop_blocks", float64(traced.stopBlocks), "count"},
		{"campaign.merge_shard_states_ms", cm.mergeMS, "ms"},
		{"engine.new_ms", ms(medianDur(newTimes)), "ms"},
		{"engine.reset_us_p50", reset.P50 / 1e3, "us"},
		{"engine.reset_us_p95", reset.P95 / 1e3, "us"},
		{"engine.run_prefail_ms_p50", pre.P50 / 1e6, "ms"},
		{"engine.run_prefail_ms_p95", pre.P95 / 1e6, "ms"},
		{"engine.run_postfail_ms_p50", post.P50 / 1e6, "ms"},
		{"engine.run_postfail_ms_p95", post.P95 / 1e6, "ms"},
		{"engine.baseline_postfail_ms", basePostMed / 1e6, "ms"},
		{"engine.recovery_extra_ms", (post.P50 - basePostMed) / 1e6, "ms"},
		{"engine.stats_us_p50", stats.P50 / 1e3, "us"},
		{"engine.stats_us_p95", stats.P95 / 1e3, "us"},
		{"engine.alloc_kb_per_scenario", float64(engB) / 1024 / fn, "KB"},
		{"engine.allocs_per_scenario", float64(engN) / fn, "count"},
		{"engine.sink_tuples_per_scenario", float64(traced.sinkTuples) / fn, "count"},
		{"sketch.add_ns", sum(tr.durations("sketch.add")) / float64(traced.adds), "ns"},
		{"sketch.marshal_us", median("sketch.marshal") / 1e3, "us"},
		{"sketch.unmarshal_us", median("sketch.unmarshal") / 1e3, "us"},
		{"sketch.merge_us", median("sketch.merge") / 1e3, "us"},
		{"sketch.state_bytes", float64(traced.stateBytes) / float64(traced.blocks), "bytes"},
		{"coord.job_ms", cm.jobMS, "ms"},
		{"coord.range_rtt_ms_p50", cm.rtt.P50, "ms"},
		{"coord.range_rtt_ms_p95", cm.rtt.P95, "ms"},
		{"coord.worker_idle_frac", cm.idleFrac, "ratio"},
		{"coord.bytes_out_kb_per_job", cm.outKB, "KB"},
		{"coord.bytes_in_kb_per_job", cm.inKB, "KB"},
		{"coord.frames_per_job", cm.frames, "count"},
		{"coord.requeues", float64(cm.requeues), "count"},
		{"runtime.gc_cpu_frac", gcCPUFrac(ph), "ratio"},
		{"runtime.gc_cycles_per_1k_scenarios", float64(ph.gcCycles) * 1000 / float64(ph.scenarios), "count"},
		{"runtime.max_rss_mb", float64(ph.rssKB) / 1024, "MB"},
		{"host.speed", ph.refWall / ph.wall, "ratio"},
		{"trace.overhead_frac", tracedWall.Seconds()/plainWall.Seconds() - 1, "ratio"},
		{"trace.scenario_cover_frac", covered.Seconds() / tracedWall.Seconds(), "ratio"},
	}
	return &tracedResult{metrics: out, events: append(tr.events(), coordEvents...), attr: tr.attribution(n)}, nil
}

// gcCPUFrac is the GC's share of the process's CPU over the phase. The
// runtime updates its CPU estimates at each collection, so a phase
// without one reports 0.
func gcCPUFrac(ph *phase) float64 {
	if ph.totalCPU <= 0 {
		return 0
	}
	return ph.gcCPU / ph.totalCPU
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// coordMetrics are the coordinator's per-layer numbers.
type coordMetrics struct {
	jobMS, mergeMS, idleFrac, outKB, inKB, frames float64
	rtt                                           campaign.Dist
	requeues                                      int
}

// coordRun runs the job through a pool of two recorded worker
// processes jobs times. The taps time each range from its assign frame
// to its result frame; the result frames are decoded again and merged
// with campaign.MergeShardStates, which must reproduce each job's
// summary digest.
func coordRun(ctx context.Context, wire campaign.WireSpec, ph *phase, jobs int, epoch time.Time) (coordMetrics, []traceEvent, error) {
	var cm coordMetrics
	ws, err := startWorkers(poolSize, true)
	if err != nil {
		return cm, nil, err
	}
	defer ws.close()
	type counts struct {
		in, out int64
		frames  int
	}
	snapshot := func() counts {
		var c counts
		for _, t := range ws.conns {
			t.mu.Lock()
			c.in += t.bytesIn
			c.out += t.bytesOut
			c.frames += t.framesIn + t.framesOut
			t.mu.Unlock()
		}
		return c
	}
	before := snapshot()
	var walls []time.Duration
	var reps []*campaign.Report
	for j := 0; j < jobs; j++ {
		t0 := time.Now()
		rep, err := ws.pool.RunJob(ctx, wire)
		if err != nil {
			return cm, nil, err
		}
		walls = append(walls, time.Since(t0))
		reps = append(reps, rep)
	}
	after := snapshot()
	fj := float64(jobs)
	cm.jobMS = float64(medianDur(walls)) / 1e6
	cm.outKB = float64(after.out-before.out) / 1024 / fj
	cm.inKB = float64(after.in-before.in) / 1024 / fj
	cm.frames = float64(after.frames-before.frames) / fj
	cm.requeues = ws.requeues()
	ph.attempted += ws.assigned()
	if cm.requeues > 0 {
		ph.failed += cm.requeues
	}

	var rtts []float64
	var busy, total time.Duration
	var events []traceEvent
	for _, t := range ws.conns {
		t.mu.Lock()
		var open *frameEvent
		for k := range t.events {
			ev := &t.events[k]
			switch {
			case ev.kind == "assign":
				open = ev
			case ev.kind == "result" && open != nil && open.job == ev.job:
				d := ev.at.Sub(open.at)
				rtts = append(rtts, float64(d)/1e6)
				busy += d
				events = append(events, traceEvent{
					Name: "coord.range", Cat: "coord", Ph: "X",
					Ts: float64(open.at.Sub(epoch)) / 1e3, Dur: float64(d) / 1e3,
					Pid: 2, Tid: t.worker + 1, Args: map[string]any{"job": ev.job},
				})
				open = nil
			}
		}
		t.mu.Unlock()
	}
	for _, d := range walls {
		total += d * poolSize
	}
	cm.rtt = campaign.NewDist(rtts)
	cm.idleFrac = 1 - busy.Seconds()/total.Seconds()

	shards := wire.Shards
	if shards <= 0 {
		shards = campaign.DefaultShards
	}
	block := (wire.Gens[0].Scenarios + shards - 1) / shards
	var mergeTimes []time.Duration
	for j, rep := range reps {
		var states []campaign.ShardState
		decodeErr := error(nil)
		for _, t := range ws.conns {
			t.mu.Lock()
			for _, f := range t.resultFrames {
				var m struct {
					Job    int                   `json:"job"`
					States []campaign.ShardState `json:"states"`
				}
				if err := json.Unmarshal(f, &m); err != nil {
					decodeErr = err
					continue
				}
				if m.Job != j+1 {
					continue
				}
				for _, s := range m.States {
					// A stopped job merges only the stopped prefix.
					if !rep.Stopped || (s.Shard+1)*block <= rep.Summary.Scenarios {
						states = append(states, s)
					}
				}
			}
			t.mu.Unlock()
		}
		t0 := time.Now()
		sum, err := campaign.MergeShardStates(states)
		mergeTimes = append(mergeTimes, time.Since(t0))
		ph.check(fmt.Sprintf("tapped result frames of job %d", j+1), mergeCheck(sum, err, decodeErr, rep))
	}
	cm.mergeMS = float64(medianDur(mergeTimes)) / 1e6
	return cm, events, nil
}

// mergeCheck requires the summary merged from tapped result frames to
// equal the summary the coordinator reported.
func mergeCheck(sum campaign.Summary, mergeErr, decodeErr error, rep *campaign.Report) []error {
	var errs []error
	if decodeErr != nil {
		errs = append(errs, fmt.Errorf("decoding a result frame: %w", decodeErr))
	}
	if mergeErr != nil {
		return append(errs, mergeErr)
	}
	if got, want := campaign.SummaryDigest(sum), campaign.SummaryDigest(rep.Summary); got != want {
		errs = append(errs, fmt.Errorf("merged digest %s, RunJob %s", got, want))
	}
	return errs
}
