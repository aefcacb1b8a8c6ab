// Command ppastorm runs Monte-Carlo failure campaigns: thousands of
// seeded correlated-failure scenarios (single node, k-of-rack bursts,
// whole-domain outages, cascading multi-domain failures) simulated in
// parallel against PPA plans, with recovery-latency, output-loss and
// answer-quality (tentative fraction, corrected fraction,
// time-to-correction) distributions aggregated per planner × topology ×
// burst model. -tentative=false disables the tentative/correction
// pipeline and zeroes the quality columns.
//
// Usage:
//
//	ppastorm -scenarios 1000 -planners sa,greedy
//	ppastorm -topos small,medium,large -models domain,cascade -format csv
//	ppastorm -scenarios 200 -correlation 0.8 -format json -o sweep.json
//	ppastorm -placement anti-affinity,round-robin -planners sa,sa-corr
//	ppastorm -scenarios 500 -cpuprofile cpu.out -memprofile mem.out
//	ppastorm -scenarios 1000000 -progress -results scenarios.csv -shards 16
//	ppastorm -role coordinator -workers-proc 4 -scenarios 100000
//	ppastorm -role coordinator -listen :7077 -workers-proc 2
//	ppastorm -role worker -connect host:7077
//
// Sweeping -placement and the *-corr planners prints a head-to-head
// table: domain-blind round-robin replica placement vs rack
// anti-affinity, and the worst-case objective vs the correlation-aware
// one.
//
// Aggregation streams: scenario results fold into mergeable quantile
// sketches in scenario order (-shards shards, each owning a contiguous
// block of scenario indices), so memory stays flat however many scenarios run — million-scenario
// sweeps are a matter of wall clock, not RAM. For a fixed seed and
// shard count the summary is bit-identical at any -workers. -results
// streams one row per scenario (CSV, or JSON lines when the path ends
// in .json/.jsonl) as the sweep runs; -progress keeps a live count on
// stderr.
//
// -cpuprofile / -memprofile write pprof profiles of the sweep, so
// campaign hot spots can be inspected with `go tool pprof` without a
// throwaway harness.
//
// -role distributes the sweep across processes. A coordinator
// (-role coordinator) spawns -workers-proc local worker processes —
// or, with -listen, waits for -workers-proc remote workers started
// with -role worker -connect — then runs every sweep cell through the
// pool: each campaign is shipped as a self-contained spec (scenarios
// are regenerated from seeds, never transferred), shard-aligned
// scenario ranges are farmed out and their serialised sketch states
// merged, so the output is bit-identical to the single-process run
// for the same -seed and -shards. Workers that die mid-sweep have
// their ranges reassigned to survivors. -results and -progress need
// the per-scenario stream and are single-process only.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/coord"
	"repro/internal/sim"
)

// row is one aggregated sweep cell.
type row struct {
	Topology    string `json:"topology"`
	Planner     string `json:"planner"`
	Placement   string `json:"placement"`
	Model       string `json:"model"`
	Scenarios   int    `json:"scenarios"`
	Unrecovered int    `json:"unrecovered"`
	// ESS is the effective sample size of the cell's loss estimate
	// (campaign.Summary.ESS): equal to Scenarios for plain Monte-Carlo,
	// above it under a well-tilted importance sampler.
	ESS float64 `json:"effective_samples"`
	// StopReason is "early-stop" when the cell halted under -ci-tol,
	// "exhausted" when it ran its full scenario list.
	StopReason  string        `json:"stop_reason"`
	Latency     campaign.Dist `json:"latency_s"`
	Loss        campaign.Dist `json:"output_loss"`
	FailedTasks campaign.Dist `json:"failed_tasks"`
	// Tentative and Corrected summarise the answer-quality axis: the
	// per-scenario fraction of sink tuples first emitted tentative, and
	// the fraction of tentative sink batches corrected by the horizon.
	Tentative campaign.Dist `json:"tentative_fraction"`
	Corrected campaign.Dist `json:"corrected_fraction"`
	// TimeToCorrection pools the per-batch correction delays (seconds)
	// over every scenario of the cell.
	TimeToCorrection campaign.Dist `json:"time_to_correction_s"`
	Baseline         int           `json:"baseline_sink_tuples"`
	Wall             float64       `json:"wall_seconds"`
}

// scenarioRow is one streamed per-scenario record: the sweep cell it
// belongs to plus the scenario's own outcome. Written as the sweep
// runs, so -results files grow with the campaign instead of a
// post-hoc dump of retained results.
type scenarioRow struct {
	Topology      string  `json:"topology"`
	Planner       string  `json:"planner"`
	Placement     string  `json:"placement"`
	Model         string  `json:"model"`
	Scenario      int     `json:"scenario"`
	Label         string  `json:"label"`
	FailedTasks   int     `json:"failed_tasks"`
	Recovered     bool    `json:"recovered"`
	LatencyS      float64 `json:"latency_s"`
	SinkTuples    int     `json:"sink_tuples"`
	OutputLoss    float64 `json:"output_loss"`
	TentativeFrac float64 `json:"tentative_frac"`
	CorrectedFrac float64 `json:"corrected_frac"`
	Corrections   int     `json:"corrections"`
}

var scenarioHeader = []string{
	"topology", "planner", "placement", "model", "scenario", "label",
	"failed_tasks", "recovered", "latency_s", "sink_tuples", "output_loss",
	"tentative_frac", "corrected_frac", "corrections",
}

// resultSink streams scenario rows to a file. CSV by default; JSON
// lines when the path ends in .json/.jsonl. Writes go through one
// bufio.Writer shared by every sweep cell, flushed per cell, so a
// million-scenario sweep performs large sequential writes and retains
// nothing. The first write error latches and silences later writes;
// callers check err() once per cell.
type resultSink struct {
	f       *os.File
	bw      *bufio.Writer
	cw      *csv.Writer // CSV mode
	enc     *json.Encoder
	lastErr error
}

func newResultSink(path string) (*resultSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := &resultSink{f: f, bw: bufio.NewWriterSize(f, 1<<16)}
	if strings.HasSuffix(path, ".json") || strings.HasSuffix(path, ".jsonl") {
		s.enc = json.NewEncoder(s.bw)
	} else {
		s.cw = csv.NewWriter(s.bw)
		if err := s.cw.Write(scenarioHeader); err != nil {
			f.Close()
			return nil, err
		}
	}
	return s, nil
}

func (s *resultSink) write(r *scenarioRow) {
	if s.lastErr != nil {
		return
	}
	if s.enc != nil {
		s.lastErr = s.enc.Encode(r)
		return
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	s.lastErr = s.cw.Write([]string{
		r.Topology, r.Planner, r.Placement, r.Model,
		strconv.Itoa(r.Scenario), r.Label,
		strconv.Itoa(r.FailedTasks), strconv.FormatBool(r.Recovered),
		f(r.LatencyS), strconv.Itoa(r.SinkTuples), f(r.OutputLoss),
		f(r.TentativeFrac), f(r.CorrectedFrac), strconv.Itoa(r.Corrections),
	})
}

// err flushes buffered rows and reports the first error seen.
func (s *resultSink) err() error {
	if s.lastErr != nil {
		return s.lastErr
	}
	if s.cw != nil {
		s.cw.Flush()
		if err := s.cw.Error(); err != nil {
			s.lastErr = err
			return err
		}
	}
	s.lastErr = s.bw.Flush()
	return s.lastErr
}

func (s *resultSink) close() error {
	werr := s.err()
	cerr := s.f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// progressMeter keeps a live sweep-cell progress line on stderr,
// throttled to at most one repaint per 200ms (checked every 1000
// results so the hot path stays a counter increment).
type progressMeter struct {
	label string
	total int
	n     int
	start time.Time
	last  time.Time
}

func newProgressMeter(label string, total int) *progressMeter {
	now := time.Now()
	return &progressMeter{label: label, total: total, start: now, last: now}
}

func (p *progressMeter) tick() {
	p.n++
	if p.n%1000 != 0 {
		return
	}
	if now := time.Now(); now.Sub(p.last) >= 200*time.Millisecond {
		p.last = now
		p.print()
	}
}

func (p *progressMeter) print() {
	rate := float64(p.n) / time.Since(p.start).Seconds()
	fmt.Fprintf(os.Stderr, "\r%s: %d/%d scenarios (%.0f/s)", p.label, p.n, p.total, rate)
}

// done paints the final progress line, annotated with the cell's
// effective sample size and how it ended (early-stop under -ci-tol vs
// exhausting its scenario list).
func (p *progressMeter) done(ess float64, reason string) {
	p.print()
	fmt.Fprintf(os.Stderr, " ess=%.0f %s\n", ess, reason)
}

// stopReason names how a campaign cell ended: halted by the CI-driven
// stop rule, or ran its full scenario list.
func stopReason(rep *campaign.Report) string {
	if rep.Stopped {
		return "early-stop"
	}
	return "exhausted"
}

// pairedKey identifies one head-to-head comparison; the placement axis
// is the pair itself.
type pairedKey struct{ topo, planner, model string }

// pairedCell pairs one metric stream per axis: per-scenario output
// loss and worst-task recovery latency.
type pairedCell struct {
	loss, lat *campaign.Paired
}

// pairedSet accumulates the CRN placement head-to-head: anti-affinity
// is the base cell, round-robin the other, paired by scenario index.
// Only meaningful under -crn (both cells replay identical draws).
type pairedSet struct {
	enabled bool
	cells   map[pairedKey]*pairedCell
	order   []pairedKey
}

func newPairedSet(enabled bool) *pairedSet {
	return &pairedSet{enabled: enabled, cells: map[pairedKey]*pairedCell{}}
}

// observer returns the per-result callback feeding one sweep cell into
// its pair, or nil when pairing is off or the placement is not part of
// the anti-affinity/round-robin comparison.
func (ps *pairedSet) observer(topo, planner, placement, model string, n int) func(campaign.ScenarioResult) {
	if !ps.enabled {
		return nil
	}
	var base bool
	switch placement {
	case "anti-affinity":
		base = true
	case "round-robin":
		base = false
	default:
		return nil
	}
	k := pairedKey{topo, planner, model}
	c := ps.cells[k]
	if c == nil {
		c = &pairedCell{loss: campaign.NewPaired(n), lat: campaign.NewPaired(n)}
		ps.cells[k] = c
		ps.order = append(ps.order, k)
	}
	if base {
		return func(r campaign.ScenarioResult) {
			c.loss.ObserveBase(r.Scenario.Index, r.OutputLoss)
			c.lat.ObserveBase(r.Scenario.Index, float64(r.WorstLatency))
		}
	}
	return func(r campaign.ScenarioResult) {
		c.loss.ObserveOther(r.Scenario.Index, r.OutputLoss)
		c.lat.ObserveOther(r.Scenario.Index, float64(r.WorstLatency))
	}
}

// writeTo appends the paired-difference table: per (topo, planner,
// model), the per-scenario delta (round-robin − anti-affinity) of the
// output loss (p95 with order-statistic CI, mean with paired-t CI) and
// the recovery latency (mean with paired-t CI). Because the deltas are
// paired on common random numbers, these intervals are far narrower
// than differencing two independent cells' summaries.
func (ps *pairedSet) writeTo(w io.Writer) {
	printed := false
	for _, k := range ps.order {
		c := ps.cells[k]
		ls, lt := c.loss.Summary(), c.lat.Summary()
		if ls.N == 0 {
			continue
		}
		if !printed {
			fmt.Fprintf(w, "\nCRN-paired deltas (round-robin − anti-affinity, 95%% CIs):\n")
			fmt.Fprintf(w, "  %-8s %-14s %-10s %6s | %8s %9s | %8s %9s | %8s %9s\n",
				"topo", "planner", "model", "pairs",
				"dp95loss", "±ci", "dloss", "±ci", "dlat_s", "±ci")
			printed = true
		}
		fmt.Fprintf(w, "  %-8s %-14s %-10s %6d | %8.4f %9.4f | %8.4f %9.4f | %8.3f %9.3f\n",
			k.topo, k.planner, k.model, ls.N,
			ls.DeltaP95, ls.DeltaP95CI, ls.MeanDelta, ls.MeanCI, lt.MeanDelta, lt.MeanCI)
	}
}

func main() {
	var (
		topos       = flag.String("topos", "medium", "comma-separated topology presets: small, medium, large")
		topoSeed    = flag.Int64("topo-seed", 1, "random-topology generation seed")
		planners    = flag.String("planners", "sa,greedy", "comma-separated plan-registry planners; \"none\" = checkpoint only")
		placements  = flag.String("placement", "anti-affinity", "comma-separated replica placement policies: anti-affinity, round-robin")
		fraction    = flag.Float64("fraction", 0.3, "actively replicated fraction of tasks")
		tentative   = flag.Bool("tentative", true, "enable tentative outputs + post-recovery corrections (answer-quality metrics)")
		models      = flag.String("models", "single,k-of-rack,domain,cascade", "comma-separated burst models")
		scenarios   = flag.Int("scenarios", 1000, "scenarios per sweep cell")
		seed        = flag.Int64("seed", 1, "campaign seed (scenario randomness)")
		correlation = flag.Float64("correlation", 0.5, "correlation strength in [0,1]")
		crn         = flag.Bool("crn", false, "generate scenarios from common-random-number substreams: every sweep cell replays bit-identical failure draws, enabling the paired head-to-head delta table")
		tilt        = flag.Float64("tilt", 0, "importance-sample rare cascades at tilted join probability 1-(1-p)^tilt (0 disables, otherwise >= 1); summaries are reweighted to the nominal correlation and report effective samples")
		ciTol       = flag.Float64("ci-tol", 0, "stop a cell early once the 95% CI half-width of its p95 output loss is at most this (0 disables)")
		failAt      = flag.Float64("fail-at", 30.5, "base failure-injection time (virtual s)")
		horizon     = flag.Float64("horizon", 150, "simulation horizon per scenario (virtual s)")
		workers     = flag.Int("workers", 0, "worker pool size; 0 = GOMAXPROCS, 1 = sequential")
		shards      = flag.Int("shards", 0, "summary reduction shards; 0 = default. Fixed seed + shards => bit-identical summaries at any -workers")
		results     = flag.String("results", "", "stream per-scenario rows to this file as the sweep runs (CSV, or JSON lines for .json/.jsonl)")
		progress    = flag.Bool("progress", false, "print a live per-cell progress line to stderr")
		format      = flag.String("format", "table", "output format: table, json, csv")
		out         = flag.String("o", "", "output file (default stdout)")
		cpuprofile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memprofile  = flag.String("memprofile", "", "write a pprof allocation profile of the sweep to this file")
		role        = flag.String("role", "", "process role: empty = single-process sweep, coordinator = distribute cells over a worker pool, worker = serve campaigns for a coordinator")
		workersProc = flag.Int("workers-proc", 2, "coordinator: worker processes to spawn (or, with -listen, remote workers to wait for)")
		listen      = flag.String("listen", "", "coordinator: accept remote workers on this TCP address instead of spawning local processes")
		connectTo   = flag.String("connect", "", "worker: dial the coordinator at this TCP address instead of serving stdin/stdout")
	)
	flag.Parse()

	if *role == "worker" {
		var err error
		if *connectTo != "" {
			err = coord.Connect(context.Background(), *connectTo, coord.WorkerOptions{})
		} else {
			err = coord.ServeWorker(context.Background(), os.Stdin, os.Stdout, coord.WorkerOptions{})
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	var pool *coord.Pool
	switch *role {
	case "":
	case "coordinator":
		if *results != "" || *progress {
			fatal(fmt.Errorf("-results and -progress stream per-scenario rows, which stay inside the worker processes; drop them or run without -role coordinator"))
		}
		if *workersProc < 1 {
			fatal(fmt.Errorf("-workers-proc must be at least 1, got %d", *workersProc))
		}
		pool = coord.NewPool(coord.PoolOptions{})
		defer pool.Close()
		if *listen != "" {
			ln, err := net.Listen("tcp", *listen)
			if err != nil {
				fatal(err)
			}
			defer ln.Close()
			fmt.Fprintf(os.Stderr, "ppastorm: waiting for %d workers on %s\n", *workersProc, ln.Addr())
			if err := pool.AcceptWorkers(ln, *workersProc); err != nil {
				fatal(err)
			}
		} else {
			exe, err := os.Executable()
			if err != nil {
				fatal(err)
			}
			for i := 0; i < *workersProc; i++ {
				if _, err := pool.AddProcess(exec.Command(exe, "-role", "worker")); err != nil {
					fatal(err)
				}
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		if err := pool.WaitReady(ctx, *workersProc); err != nil {
			cancel()
			fatal(fmt.Errorf("waiting for %d workers: %w", *workersProc, err))
		}
		cancel()
	default:
		fatal(fmt.Errorf("unknown -role %q (coordinator, worker)", *role))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	// Render into a buffer and write the destination file only after
	// the whole sweep succeeded, so a failing run never truncates the
	// results of a previous one.
	var buf bytes.Buffer
	w := io.Writer(os.Stdout)
	if *out != "" {
		w = &buf
	}

	var modelList []campaign.Model
	for _, s := range splitList(*models) {
		m, err := campaign.ParseModel(s)
		if err != nil {
			fatal(err)
		}
		modelList = append(modelList, m)
	}
	var placementList []cluster.PlacementPolicy
	for _, s := range splitList(*placements) {
		p, err := cluster.ParsePlacementPolicy(s)
		if err != nil {
			fatal(err)
		}
		placementList = append(placementList, p)
	}

	var sink *resultSink
	if *results != "" {
		s, err := newResultSink(*results)
		if err != nil {
			fatal(err)
		}
		sink = s
	}

	var rows []row
	// Paired CRN head-to-head: with -crn and both placement policies in
	// the sweep, per-scenario metrics of the anti-affinity (base) and
	// round-robin (other) cells are paired by scenario index, since CRN
	// makes both cells replay identical failure draws. Single-process
	// only — pairing needs the per-scenario stream.
	pairs := newPairedSet(*crn && pool == nil)
	// The failure-free baseline depends only on (topology, planner,
	// horizon) — not on placement or burst model — so the first cell of
	// a (topo, planner) sweep resolves it and every later cell reuses
	// its volume, locally through Config.Baseline and distributed by
	// shipping it with the cell's spec.
	baselines := map[string]int{}
	for _, topoName := range splitList(*topos) {
		topo, err := campaign.PresetTopology(topoName, *topoSeed)
		if err != nil {
			fatal(err)
		}
		for _, planner := range splitList(*planners) {
			name := planner
			if planner == "none" {
				planner = ""
			}
			// One env per planner: the replication plan is independent
			// of replica placement, so the placement sweep reuses it
			// via SetupFor instead of re-planning per policy. The
			// failure-free baseline is likewise placement-independent
			// and shared across placements and models. A coordinator
			// never builds the env — workers rebuild it from each
			// cell's wire spec.
			var env *campaign.Env
			var sample *cluster.Cluster
			if pool == nil {
				e, err := campaign.NewEnv(campaign.EnvSpec{
					Topo:      topo,
					Planner:   planner,
					Fraction:  *fraction,
					Tentative: *tentative,
				})
				if err != nil {
					fatal(err)
				}
				env = e
				sample, err = env.Cluster()
				if err != nil {
					fatal(err)
				}
			}
			baseKey := topoName + "/" + name
			for _, placement := range placementList {
				for _, model := range modelList {
					gen := campaign.GenSpec{
						Seed:        *seed,
						Scenarios:   *scenarios,
						Model:       model,
						FailAt:      campaign.Ptr(sim.Time(*failAt)),
						Correlation: *correlation,
						CRN:         *crn,
						Tilt:        *tilt,
					}
					var rep *campaign.Report
					start := time.Now()
					if pool != nil {
						wire, err := campaign.NewWireSpec(campaign.EnvSpec{
							Topo:      topo,
							Planner:   planner,
							Fraction:  *fraction,
							Placement: placement,
							Tentative: *tentative,
						}, []campaign.GenSpec{gen})
						if err != nil {
							fatal(err)
						}
						wire.Horizon = sim.Time(*horizon)
						wire.Workers = *workers
						wire.Shards = *shards
						wire.Baseline = baselines[baseKey]
						wire.StopTol = *ciTol
						rep, err = pool.RunJob(context.Background(), wire)
						if err != nil {
							fatal(err)
						}
					} else {
						scs, err := campaign.Generate(sample, gen)
						if err != nil {
							fatal(err)
						}
						cellTopo, cellPlanner := topoName, name
						cellPlacement, cellModel := placement.String(), model.String()
						var meter *progressMeter
						if *progress {
							meter = newProgressMeter(
								cellTopo+"/"+cellPlanner+"/"+cellPlacement+"/"+cellModel, len(scs))
						}
						cfg := campaign.Config{
							Setup:     env.SetupFor(placement),
							Scenarios: scs,
							Horizon:   sim.Time(*horizon),
							Workers:   *workers,
							Shards:    *shards,
							Baseline:  baselines[baseKey],
							StopTol:   *ciTol,
						}
						pairObs := pairs.observer(cellTopo, cellPlanner, cellPlacement, cellModel, len(scs))
						if sink != nil || meter != nil || pairObs != nil {
							cfg.OnResult = func(r campaign.ScenarioResult) {
								if sink != nil {
									sink.write(&scenarioRow{
										Topology:      cellTopo,
										Planner:       cellPlanner,
										Placement:     cellPlacement,
										Model:         cellModel,
										Scenario:      r.Scenario.Index,
										Label:         r.Scenario.Label,
										FailedTasks:   r.FailedTasks,
										Recovered:     r.Recovered,
										LatencyS:      float64(r.WorstLatency),
										SinkTuples:    r.SinkTuples,
										OutputLoss:    r.OutputLoss,
										TentativeFrac: r.TentativeFrac,
										CorrectedFrac: r.CorrectedFrac,
										Corrections:   len(r.CorrectionDelays),
									})
								}
								if pairObs != nil {
									pairObs(r)
								}
								if meter != nil {
									meter.tick()
								}
							}
						}
						rep, err = campaign.Run(cfg)
						if err != nil {
							fatal(err)
						}
						if meter != nil {
							meter.done(rep.Summary.ESS, stopReason(rep))
						}
						if sink != nil {
							if err := sink.err(); err != nil {
								fatal(fmt.Errorf("writing %s: %w", *results, err))
							}
						}
					}
					baselines[baseKey] = rep.BaselineSinkTuples
					rows = append(rows, row{
						Topology:         topoName,
						Planner:          name,
						Placement:        placement.String(),
						Model:            model.String(),
						Scenarios:        rep.Summary.Scenarios,
						Unrecovered:      rep.Summary.Unrecovered,
						ESS:              rep.Summary.ESS,
						StopReason:       stopReason(rep),
						Latency:          rep.Summary.Latency,
						Loss:             rep.Summary.Loss,
						FailedTasks:      rep.Summary.FailedTasks,
						Tentative:        rep.Summary.TentativeFrac,
						Corrected:        rep.Summary.CorrectedFrac,
						TimeToCorrection: rep.Summary.TimeToCorrection,
						Baseline:         rep.BaselineSinkTuples,
						Wall:             time.Since(start).Seconds(),
					})
				}
			}
		}
	}

	if sink != nil {
		if err := sink.close(); err != nil {
			fatal(fmt.Errorf("writing %s: %w", *results, err))
		}
	}

	switch *format {
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			fatal(err)
		}
	case "csv":
		if err := writeCSV(w, rows); err != nil {
			fatal(err)
		}
	case "table":
		writeTable(w, rows)
		pairs.writeTo(w)
	default:
		fatal(fmt.Errorf("unknown format %q (table, json, csv)", *format))
	}
	if *out != "" {
		if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
			fatal(err)
		}
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

var csvHeader = []string{
	"topology", "planner", "placement", "model", "scenarios", "unrecovered",
	"effective_samples", "stop_reason",
	"latency_mean_s", "latency_p50_s", "latency_p95_s", "latency_p99_s", "latency_max_s",
	"loss_mean", "loss_p95", "failed_tasks_mean", "failed_tasks_max",
	"tentative_frac_mean", "corrected_frac_mean", "t2c_p50_s", "t2c_p95_s",
	"baseline_sink_tuples", "wall_seconds",
}

func writeCSV(w io.Writer, rows []row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	for _, r := range rows {
		rec := []string{
			r.Topology, r.Planner, r.Placement, r.Model,
			strconv.Itoa(r.Scenarios), strconv.Itoa(r.Unrecovered),
			f(r.ESS), r.StopReason,
			f(r.Latency.Mean), f(r.Latency.P50), f(r.Latency.P95), f(r.Latency.P99), f(r.Latency.Max),
			f(r.Loss.Mean), f(r.Loss.P95), f(r.FailedTasks.Mean), f(r.FailedTasks.Max),
			f(r.Tentative.Mean), f(r.Corrected.Mean), f(r.TimeToCorrection.P50), f(r.TimeToCorrection.P95),
			strconv.Itoa(r.Baseline), f(r.Wall),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func writeTable(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-8s %-14s %-13s %-10s %6s %6s %8s %-10s | %8s %8s %8s %8s | %8s %8s %6s | %6s %6s %7s\n",
		"topo", "planner", "placement", "model", "scen", "unrec", "ess", "stop",
		"mean_s", "p50_s", "p95_s", "p99_s", "loss", "loss_p95", "tasks",
		"tent", "corr", "t2c_p95")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-14s %-13s %-10s %6d %6d %8.0f %-10s | %8.2f %8.2f %8.2f %8.2f | %8.4f %8.4f %6.1f | %6.4f %6.4f %7.2f\n",
			r.Topology, r.Planner, r.Placement, r.Model, r.Scenarios, r.Unrecovered, r.ESS, r.StopReason,
			r.Latency.Mean, r.Latency.P50, r.Latency.P95, r.Latency.P99,
			r.Loss.Mean, r.Loss.P95, r.FailedTasks.Mean,
			r.Tentative.Mean, r.Corrected.Mean, r.TimeToCorrection.P95)
	}
	writeHeadToHead(w, rows)
}

// writeHeadToHead appends the placement comparison: for every (topology,
// planner, model) cell that was swept under both anti-affinity and
// round-robin placement, the p95 output loss of the two policies side by
// side with the relative change. This is the headline number of the
// placement fix — a domain burst that kills a co-located replica under
// round-robin leaves an out-of-rack replica alive under anti-affinity.
func writeHeadToHead(w io.Writer, rows []row) {
	type cell struct{ topo, planner, model string }
	aa := map[cell]row{}
	rr := map[cell]row{}
	var order []cell
	for _, r := range rows {
		k := cell{r.Topology, r.Planner, r.Model}
		switch r.Placement {
		case "anti-affinity":
			if _, dup := aa[k]; !dup {
				aa[k] = r
				if _, other := rr[k]; !other {
					order = append(order, k)
				}
			}
		case "round-robin":
			if _, dup := rr[k]; !dup {
				rr[k] = r
				if _, other := aa[k]; !other {
					order = append(order, k)
				}
			}
		}
	}
	printed := false
	for _, k := range order {
		a, okA := aa[k]
		b, okB := rr[k]
		if !okA || !okB {
			continue
		}
		if !printed {
			fmt.Fprintf(w, "\nhead-to-head p95 output loss (anti-affinity vs round-robin):\n")
			printed = true
		}
		delta := "n/a"
		if b.Loss.P95 > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(a.Loss.P95-b.Loss.P95)/b.Loss.P95)
		}
		fmt.Fprintf(w, "  %-8s %-14s %-10s  %8.4f vs %8.4f  (%s)\n",
			k.topo, k.planner, k.model, a.Loss.P95, b.Loss.P95, delta)
	}
}

func fatal(err error) {
	// os.Exit skips the deferred profile teardown in main: flush the
	// CPU profile here so a failed profiled sweep still leaves a
	// readable file. A no-op when profiling is off.
	pprof.StopCPUProfile()
	fmt.Fprintln(os.Stderr, "ppastorm:", err)
	os.Exit(1)
}
