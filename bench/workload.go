package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/topology"
)

// workload is one set of benchmark inputs: a sweep of campaign cells run
// as a closed batch. Each cell's scenarios all complete before the next
// cell starts, on a pool of two workers. Every field except the cells is
// shared by the whole sweep, as in one ppastorm invocation.
type workload struct {
	Name string `json:"name"`
	// Topo is the topology preset, always generated with topology seed 1.
	Topo   string         `json:"topology"`
	Layout cluster.Layout `json:"layout"`
	// Scenarios is N, the scenarios generated per cell (the cap, when
	// StopTol lets a cell stop early).
	Scenarios  int     `json:"scenarios_per_cell"`
	Horizon    float64 `json:"horizon_s"`
	Shards     int     `json:"shards,omitempty"`
	StopTol    float64 `json:"stop_tol,omitempty"`
	Tilt       float64 `json:"tilt,omitempty"`
	CRN        bool    `json:"crn,omitempty"`
	CascadeLag float64 `json:"cascade_lag_s,omitempty"`
	// Dist runs every cell through a coord.Pool of worker processes.
	Dist bool `json:"distributed,omitempty"`
	// Paired feeds the per-result stream of cell 0 (base) and cell 1
	// (other) into campaign.Paired, as ppastorm's paired table does.
	Paired bool   `json:"paired,omitempty"`
	Cells  []cell `json:"cells"`
}

// cell is one sweep cell: what varies between the cells of a workload.
type cell struct {
	Planner     string  `json:"planner"`
	Placement   string  `json:"placement"`
	Model       string  `json:"model"`
	Correlation float64 `json:"correlation"`
}

// poolSize is the number of campaign workers: goroutines in process, or
// worker processes (each with one goroutine) for a distributed workload.
const poolSize = 2

// workloads are the benchmark's four input sets; README.md says why
// each was chosen. N is sized so that one round of cells takes a few
// seconds on a 2-vCPU host, and a run repeats rounds for its duration.
var workloads = []workload{
	{
		Name: "sweep-medium", Topo: campaign.TopoMedium,
		Scenarios: 250, Horizon: 90,
		Cells: []cell{
			{"sa-corr", "anti-affinity", "domain", 0.5},
			{"sa-corr", "anti-affinity", "cascade", 0.5},
			{"greedy", "anti-affinity", "domain", 0.5},
			{"greedy", "anti-affinity", "cascade", 0.5},
		},
	},
	{
		Name: "sweep-large-paired", Topo: campaign.TopoLarge,
		Scenarios: 200, Horizon: 150, CRN: true, Paired: true,
		Cells: []cell{
			{"sa", "anti-affinity", "k-of-rack", 0.5},
			{"sa", "round-robin", "k-of-rack", 0.5},
		},
	},
	{
		Name: "cascade-tilted-stop", Topo: campaign.TopoMedium,
		Layout:    cluster.Layout{Zones: 4, RacksPerZone: 2},
		Scenarios: 6000, Horizon: 70, Shards: 48, StopTol: 1e-5, Tilt: 5, CRN: true, CascadeLag: 12,
		Cells: []cell{
			{"", "anti-affinity", "cascade", 0.05},
			{"", "anti-affinity", "cascade", 0.1},
		},
	},
	{
		Name: "dist-small", Topo: campaign.TopoSmall,
		Scenarios: 1500, Horizon: 40, Shards: 256, Dist: true,
		Cells: []cell{
			{"greedy", "anti-affinity", "single", 0.5},
			{"greedy", "anti-affinity", "k-of-rack", 0.5},
		},
	},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// roundSeed is the scenario seed of one round: every round of a run
// draws fresh scenarios, and runs with different -seed never share one.
func roundSeed(seed int64, round int) int64 { return seed<<20 + int64(round) }

// genSpec is the scenario-generation spec of cell c in the given round.
func (w workload) genSpec(c cell, seed int64) (campaign.GenSpec, error) {
	model, err := campaign.ParseModel(c.Model)
	if err != nil {
		return campaign.GenSpec{}, err
	}
	g := campaign.GenSpec{
		Seed:        seed,
		Scenarios:   w.Scenarios,
		Model:       model,
		Correlation: c.Correlation,
		CRN:         w.CRN,
		Tilt:        w.Tilt,
	}
	if w.CascadeLag > 0 {
		g.CascadeLag = campaign.Ptr(sim.Time(w.CascadeLag))
	}
	return g, nil
}

// envSpec is the campaign environment of cell c.
func (w workload) envSpec(topo *topology.Topology, c cell) (campaign.EnvSpec, error) {
	placement, err := cluster.ParsePlacementPolicy(c.Placement)
	if err != nil {
		return campaign.EnvSpec{}, err
	}
	return campaign.EnvSpec{Topo: topo, Planner: c.Planner, Placement: placement, Tentative: true, Layout: w.Layout}, nil
}

// planned is the per-planner part of a workload's set-up: the planned
// environment, a sample cluster to generate scenarios against, and the
// failure-free baseline volume. Placement and burst model do not change
// the baseline, so cells sharing a planner share all three.
type planned struct {
	env    *campaign.Env
	sample *cluster.Cluster
	base   int
}

// prepared is a workload after set-up, ready for its timed phase.
type prepared struct {
	w       workload
	topo    *topology.Topology
	planned map[string]*planned
	workers *workerSet // distributed workloads only
	// newEnv and baseline are this set-up's time in campaign.NewEnv and
	// campaign.BaselineVolume, summed over planners.
	newEnv, baseline time.Duration
}

// setup does everything before the first timed cell: topology
// generation, campaign.NewEnv per planner (where planning happens),
// campaign.BaselineVolume per planner and, for a distributed workload,
// spawning the worker processes and waiting for their handshakes.
func setup(w workload) (*prepared, error) {
	topo, err := campaign.PresetTopology(w.Topo, 1)
	if err != nil {
		return nil, err
	}
	p := &prepared{w: w, topo: topo, planned: map[string]*planned{}}
	for _, c := range w.Cells {
		if p.planned[c.Planner] != nil {
			continue
		}
		spec, err := w.envSpec(topo, c)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		env, err := campaign.NewEnv(spec)
		if err != nil {
			return nil, err
		}
		p.newEnv += time.Since(t0)
		sample, err := env.Cluster()
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		// Validate needs a scenario list; the baseline never reads it.
		base, err := campaign.BaselineVolume(campaign.Config{
			Setup: env.Setup, Scenarios: make([]campaign.Scenario, 1), Horizon: sim.Time(w.Horizon),
		})
		if err != nil {
			return nil, err
		}
		p.baseline += time.Since(t0)
		p.planned[c.Planner] = &planned{env: env, sample: sample, base: base}
	}
	if w.Dist {
		if p.workers, err = startWorkers(poolSize, false); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *prepared) close() {
	if p.workers != nil {
		p.workers.close()
	}
}

// cellRun is the outcome of one timed cell, as listed in the manifest.
type cellRun struct {
	Round     int     `json:"round"`
	Cell      int     `json:"cell"`
	Seed      int64   `json:"seed"`
	Scenarios int     `json:"scenarios"`
	ESS       float64 `json:"effective_samples"`
	Stopped   bool    `json:"stopped,omitempty"`
	Digest    string  `json:"summary_digest"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	// HostSpeed is the host speed measured right after the cell.
	HostSpeed float64 `json:"host_speed"`
	// wire is the job spec of a distributed cell, kept to re-run it
	// in process for the digest check.
	wire *campaign.WireSpec
}

// runCell executes cell ci of the given round: Generate plus
// campaign.Run in process, or Pool.RunJob through the workers (which
// generate on each side from the shipped spec). onResult, when set,
// receives every scenario result in index order.
func (p *prepared) runCell(ctx context.Context, round, ci int, seed int64, onResult func(campaign.ScenarioResult)) (cellRun, *campaign.Report, error) {
	w, c := p.w, p.w.Cells[ci]
	out := cellRun{Round: round, Cell: ci, Seed: roundSeed(seed, round)}
	gen, err := w.genSpec(c, out.Seed)
	if err != nil {
		return out, nil, err
	}
	pl := p.planned[c.Planner]
	spec, err := w.envSpec(p.topo, c)
	if err != nil {
		return out, nil, err
	}
	start := time.Now()
	var rep *campaign.Report
	if w.Dist {
		wire, err := campaign.NewWireSpec(spec, []campaign.GenSpec{gen})
		if err != nil {
			return out, nil, err
		}
		wire.Horizon = sim.Time(w.Horizon)
		wire.Workers = 1
		wire.Shards = w.Shards
		wire.Baseline = pl.base
		wire.StopTol = w.StopTol
		out.wire = &wire
		if rep, err = p.workers.pool.RunJob(ctx, wire); err != nil {
			return out, nil, err
		}
	} else {
		scs, err := campaign.Generate(pl.sample, gen)
		if err != nil {
			return out, nil, err
		}
		if rep, err = campaign.RunContext(ctx, campaign.Config{
			Setup:     pl.env.SetupFor(spec.Placement),
			Scenarios: scs,
			Horizon:   sim.Time(w.Horizon),
			Workers:   poolSize,
			Shards:    w.Shards,
			Baseline:  pl.base,
			StopTol:   w.StopTol,
			OnResult:  onResult,
		}); err != nil {
			return out, nil, err
		}
	}
	out.WallS = time.Since(start).Seconds()
	out.Scenarios = rep.Summary.Scenarios
	out.ESS = rep.Summary.ESS
	out.Stopped = rep.Stopped
	out.Digest = campaign.SummaryDigest(rep.Summary)
	return out, rep, nil
}

// checkCell lists what is wrong with one cell's report: its scenario
// count must be N, or a whole number of shard blocks when the stop rule
// fired; no more scenarios may be unrecovered than ran; every loss
// statistic lies in [0, 1]; the baseline and the effective sample size
// are positive.
func checkCell(w workload, rep *campaign.Report) []error {
	var errs []error
	s := rep.Summary
	shards := w.Shards
	if shards <= 0 {
		shards = campaign.DefaultShards
	}
	block := (w.Scenarios + shards - 1) / shards
	switch {
	case !rep.Stopped && s.Scenarios != w.Scenarios:
		errs = append(errs, fmt.Errorf("summary covers %d scenarios, want %d", s.Scenarios, w.Scenarios))
	case rep.Stopped && (s.Scenarios <= 0 || s.Scenarios >= w.Scenarios || s.Scenarios%block != 0):
		errs = append(errs, fmt.Errorf("stopped summary covers %d scenarios, not a block prefix (block %d) of %d", s.Scenarios, block, w.Scenarios))
	}
	if s.Unrecovered < 0 || s.Unrecovered > s.Scenarios {
		errs = append(errs, fmt.Errorf("%d unrecovered of %d scenarios", s.Unrecovered, s.Scenarios))
	}
	for _, v := range []float64{s.Loss.Mean, s.Loss.P50, s.Loss.P95, s.Loss.P99, s.Loss.Max} {
		if !(v >= 0 && v <= 1) {
			errs = append(errs, fmt.Errorf("output loss statistic %v outside [0, 1]", v))
			break
		}
	}
	if rep.BaselineSinkTuples <= 0 {
		errs = append(errs, fmt.Errorf("baseline volume %d, want > 0", rep.BaselineSinkTuples))
	}
	if !(s.ESS > 0) {
		errs = append(errs, fmt.Errorf("effective sample size %v, want > 0", s.ESS))
	}
	return errs
}

// phase is the outcome of a workload's timed phase.
type phase struct {
	cells []cellRun
	// The times, the counts and the runtime/metrics deltas cover the
	// cells only, not the set-ups and host measurements between them.
	// wall is in measured seconds; refWall and refCPU are in reference
	// seconds, each cell's seconds times the host speed measured right
	// after it. refCPU is the user+system CPU of this process and its
	// workers; gcCycles, gcCPU and totalCPU are of this process alone.
	wall            float64
	refWall, refCPU float64
	scenarios       int
	ess             float64
	gcCycles        uint64
	gcCPU, totalCPU float64
	// rssKB is the summed peak resident set of this process and its
	// workers.
	rssKB int64
	// attempted and failed count scenarios executed, checks made and
	// ranges assigned, and which of them failed.
	attempted, failed int
	problems          []string
}

func (ph *phase) check(what string, errs []error) {
	ph.attempted++
	if len(errs) > 0 {
		ph.failed++
		for _, err := range errs {
			ph.problems = append(ph.problems, what+": "+err.Error())
		}
	}
}

// timedPhase runs rounds of the workload's cells until the run has
// lasted about d: it stops after the round that brings the elapsed time
// within half a round of d, so every run executes whole rounds and
// keeps the cell mix fixed. After every cell it measures the host once
// (see calibrate); before that measurement, after the first cell and
// then every setupEvery, it times laterSetups more set-ups into st.
func (p *prepared) timedPhase(ctx context.Context, seed int64, d time.Duration, st *setupTimes) (*phase, error) {
	ph := &phase{}
	pids := []int{selfPID}
	if p.workers != nil {
		pids = append(pids, p.workers.pids()...)
	}
	start := time.Now()
	var lastSetups time.Time
	for round := 0; ; round++ {
		roundStart := time.Now()
		var pair *pairedCells
		for ci := range p.w.Cells {
			var onResult func(campaign.ScenarioResult)
			if p.w.Paired {
				if ci == 0 {
					pair = newPairedCells(p.w.Scenarios)
				}
				onResult = pair.observer(ci == 0)
			}
			cpu0, err := cpuTime(pids)
			if err != nil {
				return nil, err
			}
			rt0 := readRuntime()
			cr, rep, err := p.runCell(ctx, round, ci, seed, onResult)
			if err != nil {
				ph.attempted += p.w.Scenarios
				ph.failed += p.w.Scenarios
				ph.problems = append(ph.problems, fmt.Sprintf("round %d cell %d: %v", round, ci, err))
				return ph, nil
			}
			rt1 := readRuntime()
			cpu1, err := cpuTime(pids)
			if err != nil {
				return nil, err
			}
			ph.attempted += cr.Scenarios
			ph.check(fmt.Sprintf("round %d cell %d", round, ci), checkCell(p.w, rep))
			if lastSetups.IsZero() || time.Since(lastSetups) >= setupEvery {
				for k := 0; k < laterSetups; k++ {
					q, err := st.timeSetup(p.w)
					if err != nil {
						return nil, err
					}
					q.close()
				}
				lastSetups = time.Now()
			}
			cr.CPUS = (cpu1 - cpu0).Seconds()
			cr.HostSpeed = calibrate()
			st.normalize(cr.HostSpeed)
			ph.cells = append(ph.cells, cr)
			ph.wall += cr.WallS
			ph.refWall += cr.WallS * cr.HostSpeed
			ph.refCPU += cr.CPUS * cr.HostSpeed
			ph.scenarios += cr.Scenarios
			ph.ess += cr.ESS
			ph.gcCycles += rt1.gcCycles - rt0.gcCycles
			ph.gcCPU += rt1.gcCPU - rt0.gcCPU
			ph.totalCPU += rt1.totalCPU - rt0.totalCPU
		}
		if pair != nil {
			ph.check(fmt.Sprintf("round %d paired", round), pair.check(p.w.Scenarios))
		}
		if time.Since(start)+time.Since(roundStart)/2 >= d {
			break
		}
	}
	var err error
	if ph.rssKB, err = peakRSS(pids); err != nil {
		return nil, err
	}
	if p.workers != nil {
		ph.attempted += p.workers.assigned()
		if rq := p.workers.requeues(); rq > 0 {
			ph.failed += rq
			ph.problems = append(ph.problems, fmt.Sprintf("%d ranges requeued", rq))
		}
	}
	return ph, nil
}

// setupEvery spaces the set-ups timed during a timed phase.
const setupEvery = 4 * time.Second

// checkDistDigest re-runs the first distributed cell in process, untimed,
// from the same WireSpec.Config(): the coordinator's merged summary must
// be bit-identical to it.
func checkDistDigest(ph *phase) {
	if len(ph.cells) == 0 || ph.cells[0].wire == nil {
		return
	}
	first := ph.cells[0]
	ph.check("dist-vs-in-process digest", func() []error {
		cfg, err := first.wire.Config()
		if err != nil {
			return []error{err}
		}
		cfg.Workers = poolSize
		rep, err := campaign.Run(cfg)
		if err != nil {
			return []error{err}
		}
		if got := campaign.SummaryDigest(rep.Summary); got != first.Digest {
			return []error{fmt.Errorf("coordinator digest %s, in-process %s", first.Digest, got)}
		}
		return nil
	}())
}

// pairedCells is the CRN head-to-head of one round: loss and recovery
// latency per scenario index, cell 0 as base and cell 1 as other.
type pairedCells struct {
	loss, lat *campaign.Paired
}

func newPairedCells(n int) *pairedCells {
	return &pairedCells{loss: campaign.NewPaired(n), lat: campaign.NewPaired(n)}
}

func (pc *pairedCells) observer(base bool) func(campaign.ScenarioResult) {
	if base {
		return func(r campaign.ScenarioResult) {
			pc.loss.ObserveBase(r.Scenario.Index, r.OutputLoss)
			pc.lat.ObserveBase(r.Scenario.Index, float64(r.WorstLatency))
		}
	}
	return func(r campaign.ScenarioResult) {
		pc.loss.ObserveOther(r.Scenario.Index, r.OutputLoss)
		pc.lat.ObserveOther(r.Scenario.Index, float64(r.WorstLatency))
	}
}

// check requires both paired summaries to cover every scenario.
func (pc *pairedCells) check(n int) []error {
	var errs []error
	if got := pc.loss.Summary().N; got != n {
		errs = append(errs, fmt.Errorf("paired loss covers %d scenarios, want %d", got, n))
	}
	if got := pc.lat.Summary().N; got != n {
		errs = append(errs, fmt.Errorf("paired latency covers %d scenarios, want %d", got, n))
	}
	return errs
}

// A run sets the workload up initialSetups times before its timed
// phase and keeps the last set-up; every setupEvery of the timed phase
// it sets up laterSetups more times and closes them at once. Each
// sample is converted to reference seconds with the host speed
// measured right after it, and setup_s is their median. Samples
// spread over the run, each paired with the host's speed at the time,
// vary less between runs than set-ups timed back to back at the start.
const (
	initialSetups = 3
	laterSetups   = 2
)

// setupTimes holds the durations of every set-up of one run.
type setupTimes struct {
	total, newEnv, baseline []time.Duration
	// ref holds the set-up times in reference seconds; the last pending
	// entries of total await their host-speed measurement.
	ref     []float64
	pending int
}

// timeSetup sets the workload up once and records how long it took.
func (st *setupTimes) timeSetup(w workload) (*prepared, error) {
	t0 := time.Now()
	p, err := setup(w)
	if err != nil {
		return nil, err
	}
	st.total = append(st.total, time.Since(t0))
	st.newEnv = append(st.newEnv, p.newEnv)
	st.baseline = append(st.baseline, p.baseline)
	st.pending++
	return p, nil
}

// normalize converts the pending set-up times to reference seconds at
// the given host speed.
func (st *setupTimes) normalize(speed float64) {
	for _, d := range st.total[len(st.total)-st.pending:] {
		st.ref = append(st.ref, d.Seconds()*speed)
	}
	st.pending = 0
}

// setupRepeated sets the workload up initialSetups times, measures the
// host once, and returns the last set-up.
func setupRepeated(w workload, st *setupTimes) (*prepared, error) {
	var p *prepared
	for i := 0; i < initialSetups; i++ {
		if p != nil {
			p.close()
		}
		var err error
		if p, err = st.timeSetup(w); err != nil {
			return nil, err
		}
	}
	st.normalize(calibrate())
	return p, nil
}

// medianDur returns the median of ds (the upper one for an even count).
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
