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
// Sweeping -placement anti-affinity,round-robin prints a head-to-head
// table: per topology × planner × model, the p95 output loss of rack
// anti-affinity next to that of domain-blind round-robin replica
// placement. With -crn the table format adds the CRN-paired
// per-scenario deltas of the same pairs. The *-corr planners are swept
// as planners of their own; no table sets them against their
// worst-case counterparts.
//
// Every flag is checked before the first cell runs and before -results
// is opened. An unknown name in any list, an empty list, an
// out-of-range value, a -fail-at at or past -horizon, and -fraction 0
// with a replicating planner (use -planners none for checkpoint-only
// recovery) all fail at once, naming the flag.
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
// the per-scenario stream and are single-process only. So is the
// CRN-paired table: a coordinator says on stderr that it skips it, and
// its stdout is the single-process output without that table.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/coord"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "ppastorm:", err)
		os.Exit(1)
	}
}

// run parses args and either serves as a coordinator's worker or runs
// the sweep, printing its report to stdout (or -o) and progress and
// notes to stderr.
func run(args []string, stdout, stderr io.Writer) (err error) {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	if o.role == "worker" {
		if o.connect != "" {
			return coord.Connect(context.Background(), o.connect, coord.WorkerOptions{})
		}
		return coord.ServeWorker(context.Background(), os.Stdin, stdout, coord.WorkerOptions{})
	}
	s := &sweep{options: o, stderr: stderr}
	if o.role == "coordinator" {
		if s.pool, err = startPool(o, stderr); err != nil {
			return err
		}
		defer s.pool.Close()
	}
	// The profiles are written on every return, failures included; a
	// profile's write error is reported unless run already failed.
	if o.cpuprofile != "" {
		f, perr := os.Create(o.cpuprofile)
		if perr != nil {
			return perr
		}
		if perr := pprof.StartCPUProfile(f); perr != nil {
			f.Close()
			return perr
		}
		defer func() {
			pprof.StopCPUProfile()
			if perr := f.Close(); err == nil {
				err = perr
			}
		}()
	}
	if o.memprofile != "" {
		defer func() {
			f, perr := os.Create(o.memprofile)
			if perr == nil {
				runtime.GC()
				perr = errors.Join(pprof.WriteHeapProfile(f), f.Close())
			}
			if err == nil {
				err = perr
			}
		}()
	}

	// CRN makes the anti-affinity and round-robin cells replay identical
	// draws, so their per-scenario metrics pair by scenario index. Only
	// the table prints the pairs, and only a single process sees the
	// per-scenario stream they need.
	if o.gen.CRN && o.format == "table" &&
		slices.Contains(o.placements, cluster.PlacementAntiAffinity) &&
		slices.Contains(o.placements, cluster.PlacementRoundRobin) {
		if s.pool != nil {
			fmt.Fprintln(stderr, "ppastorm: skipping the CRN-paired table: pairing needs the per-scenario stream, which stays in the worker processes")
		} else {
			s.pairs = &pairedSet{cells: map[pairedKey]*pairedCell{}}
		}
	}
	if o.results != "" {
		if s.sink, err = newResultSink(o.results); err != nil {
			return err
		}
		defer s.sink.f.Close() // after close below, only the error path needs it
	}
	rows, err := s.rows()
	if err != nil {
		return err
	}
	if s.sink != nil {
		if err := s.sink.close(); err != nil {
			return fmt.Errorf("writing %s: %w", o.results, err)
		}
	}

	// Render into a buffer and write the destination file only after
	// the whole sweep succeeded, so a failing run never truncates the
	// results of a previous one.
	var buf bytes.Buffer
	if err := render(&buf, o.format, rows, s.pairs); err != nil {
		return err
	}
	if o.out != "" {
		return os.WriteFile(o.out, buf.Bytes(), 0o644)
	}
	_, err = stdout.Write(buf.Bytes())
	return err
}

// options are ppastorm's flags, checked, with the sweep axes resolved.
// env, gen and cfg are the templates every cell copies: the cell loop
// fills in the topology, planner, placement, model and scenarios, and
// for a coordinator the baseline.
type options struct {
	topoSeed   int64
	topoNames  []string
	topos      []*topology.Topology
	planners   []string // "none" = checkpoint only
	placements []cluster.PlacementPolicy
	models     []campaign.Model
	env        campaign.EnvSpec
	gen        campaign.GenSpec
	cfg        campaign.Config

	results, format, out   string
	progress               bool
	cpuprofile, memprofile string
	role, listen, connect  string
	workersProc            int
}

// parseFlags parses args into checked options. A worker needs none of
// the sweep flags, so -role worker skips their checks.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("ppastorm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o                                   options
		topos, planners, placements, models string
		failAt, horizon                     float64
	)
	fs.StringVar(&topos, "topos", "medium", "comma-separated topology presets: small, medium, large")
	fs.Int64Var(&o.topoSeed, "topo-seed", 1, "random-topology generation seed")
	fs.StringVar(&planners, "planners", "sa,greedy", "comma-separated plan-registry planners; \"none\" = checkpoint only")
	fs.StringVar(&placements, "placement", "anti-affinity", "comma-separated replica placement policies: anti-affinity, round-robin")
	fs.Float64Var(&o.env.Fraction, "fraction", 0.3, "actively replicated fraction of tasks")
	fs.BoolVar(&o.env.Tentative, "tentative", true, "enable tentative outputs + post-recovery corrections (answer-quality metrics)")
	fs.StringVar(&models, "models", "single,k-of-rack,domain,cascade", "comma-separated burst models")
	fs.IntVar(&o.gen.Scenarios, "scenarios", 1000, "scenarios per sweep cell")
	fs.Int64Var(&o.gen.Seed, "seed", 1, "campaign seed (scenario randomness)")
	fs.Float64Var(&o.gen.Correlation, "correlation", 0.5, "correlation strength in [0,1]")
	fs.BoolVar(&o.gen.CRN, "crn", false, "generate scenarios from common-random-number substreams: every sweep cell replays bit-identical failure draws, enabling the paired head-to-head delta table")
	fs.Float64Var(&o.gen.Tilt, "tilt", 0, "importance-sample rare cascades at tilted join probability 1-(1-p)^tilt (0 disables, otherwise >= 1); summaries are reweighted to the nominal correlation and report effective samples")
	fs.Float64Var(&o.cfg.StopTol, "ci-tol", 0, "stop a cell early once the 95% CI half-width of its p95 output loss is at most this (0 disables)")
	fs.Float64Var(&failAt, "fail-at", 30.5, "base failure-injection time (virtual s)")
	fs.Float64Var(&horizon, "horizon", 150, "simulation horizon per scenario (virtual s)")
	fs.IntVar(&o.cfg.Workers, "workers", 0, "worker pool size; 0 = GOMAXPROCS, 1 = sequential")
	fs.IntVar(&o.cfg.Shards, "shards", 0, "summary reduction shards; 0 = default. Fixed seed + shards => bit-identical summaries at any -workers")
	fs.StringVar(&o.results, "results", "", "stream per-scenario rows to this file as the sweep runs (CSV, or JSON lines for .json/.jsonl)")
	fs.BoolVar(&o.progress, "progress", false, "print a live per-cell progress line to stderr")
	fs.StringVar(&o.format, "format", "table", "output format: table, json, csv")
	fs.StringVar(&o.out, "o", "", "output file (default stdout)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a pprof allocation profile of the sweep to this file")
	fs.StringVar(&o.role, "role", "", "process role: empty = single-process sweep, coordinator = distribute cells over a worker pool, worker = serve campaigns for a coordinator")
	fs.IntVar(&o.workersProc, "workers-proc", 2, "coordinator: worker processes to spawn (or, with -listen, remote workers to wait for)")
	fs.StringVar(&o.listen, "listen", "", "coordinator: accept remote workers on this TCP address instead of spawning local processes")
	fs.StringVar(&o.connect, "connect", "", "worker: dial the coordinator at this TCP address instead of serving stdin/stdout")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.role == "worker" {
		return &o, nil
	}
	if err := o.check(failAt, horizon, topos, planners, placements, models); err != nil {
		return nil, err
	}
	o.gen.FailAt = campaign.Ptr(sim.Time(failAt))
	o.cfg.Horizon = sim.Time(horizon)
	return &o, nil
}

// check rejects every flag value the sweep would trip over mid-run,
// or run with to no purpose, or silently replace with a default,
// naming the flag; and it resolves every name of the four sweep axes,
// so a typo late in a list fails before the first cell instead of when
// its cells start. The comparisons are written so that NaN fails them.
func (o *options) check(failAt, horizon float64, topos, planners, placements, models string) error {
	switch {
	case o.role != "" && o.role != "coordinator":
		return fmt.Errorf("-role: unknown role %q (coordinator, worker)", o.role)
	case o.role == "coordinator" && o.workersProc < 1:
		return fmt.Errorf("-workers-proc must be at least 1, got %d", o.workersProc)
	case o.role == "coordinator" && (o.results != "" || o.progress):
		return fmt.Errorf("-results and -progress stream per-scenario rows, which stay inside the worker processes; drop them or run without -role coordinator")
	case o.format != "table" && o.format != "json" && o.format != "csv":
		return fmt.Errorf("-format: unknown format %q (table, json, csv)", o.format)
	case !(o.env.Fraction >= 0 && o.env.Fraction <= 1):
		return fmt.Errorf("-fraction %v: want a fraction in [0, 1]", o.env.Fraction)
	case o.gen.Scenarios < 1:
		return fmt.Errorf("-scenarios %d: want at least 1", o.gen.Scenarios)
	case !(o.gen.Correlation >= 0 && o.gen.Correlation <= 1):
		return fmt.Errorf("-correlation %v: want a strength in [0, 1]", o.gen.Correlation)
	case !(o.gen.Tilt == 0 || o.gen.Tilt >= 1):
		return fmt.Errorf("-tilt %v: want 0 (off) or a factor of at least 1", o.gen.Tilt)
	case !(o.cfg.StopTol >= 0):
		return fmt.Errorf("-ci-tol %v: want a non-negative tolerance", o.cfg.StopTol)
	case !(horizon > 0) || math.IsInf(horizon, 1):
		return fmt.Errorf("-horizon %v: want a finite, positive time", horizon)
	case !(failAt >= 0 && failAt < horizon):
		return fmt.Errorf("-fail-at %v: want a time in [0, %v), before -horizon", failAt, horizon)
	}
	var err error
	preset := func(name string) (*topology.Topology, error) { return campaign.PresetTopology(name, o.topoSeed) }
	if o.topos, err = parseList("-topos", topos, preset); err != nil {
		return err
	}
	o.topoNames = splitList(topos)
	if o.planners, err = parseList("-planners", planners, checkPlanner); err != nil {
		return err
	}
	if o.placements, err = parseList("-placement", placements, cluster.ParsePlacementPolicy); err != nil {
		return err
	}
	if o.models, err = parseList("-models", models, campaign.ParseModel); err != nil {
		return err
	}
	// campaign.NewEnv reads a zero Fraction as its 0.3 default, so a
	// planner row would be labelled with a plan it never ran.
	if o.env.Fraction == 0 && slices.ContainsFunc(o.planners, func(p string) bool { return p != "none" }) {
		return fmt.Errorf("-fraction 0 replicates no task, yet -planners %q names a planner; use -planners none for checkpoint-only recovery", planners)
	}
	return nil
}

func checkPlanner(name string) (string, error) {
	if _, ok := plan.Lookup(name); !ok && name != "none" {
		return "", fmt.Errorf("unknown planner %q (registered: %v, or none)", name, plan.Names())
	}
	return name, nil
}

// parseList resolves every name of the comma-separated list value of
// flag name; an empty list is an error, since the sweep would have no
// cells.
func parseList[T any](name, list string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, s := range splitList(list) {
		v, err := parse(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: empty list, so the sweep has no cells", name)
	}
	return out, nil
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

// startPool starts the coordinator's worker pool and waits for its
// workers: -workers-proc local processes running this executable with
// -role worker, or, with -listen, as many remote workers.
func startPool(o *options, stderr io.Writer) (_ *coord.Pool, err error) {
	pool := coord.NewPool(coord.PoolOptions{})
	defer func() {
		if err != nil {
			pool.Close()
		}
	}()
	if o.listen != "" {
		ln, err := net.Listen("tcp", o.listen)
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		fmt.Fprintf(stderr, "ppastorm: waiting for %d workers on %s\n", o.workersProc, ln.Addr())
		if err := pool.AcceptWorkers(ln, o.workersProc); err != nil {
			return nil, err
		}
	} else {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		for i := 0; i < o.workersProc; i++ {
			if _, err := pool.AddProcess(exec.Command(exe, "-role", "worker")); err != nil {
				return nil, err
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := pool.WaitReady(ctx, o.workersProc); err != nil {
		return nil, fmt.Errorf("waiting for %d workers: %w", o.workersProc, err)
	}
	return pool, nil
}

// sweep is one run of the cell loop: the checked options, the
// coordinator pool (nil in a single process) and the consumers of the
// per-scenario stream (each nil when off).
type sweep struct {
	*options
	pool   *coord.Pool
	sink   *resultSink
	pairs  *pairedSet
	stderr io.Writer
}

// rows runs every cell — topology × planner × placement × model, in
// flag order — and returns one row per cell.
func (s *sweep) rows() ([]row, error) {
	var rows []row
	for i, topo := range s.topos {
		for _, name := range s.planners {
			spec := s.env
			spec.Topo = topo
			if name != "none" {
				spec.Planner = name
			}
			// One env per planner: the replication plan is independent
			// of replica placement, so the placement sweep reuses it
			// via SetupFor instead of re-planning per policy. A
			// coordinator never builds the env — workers rebuild it
			// from each cell's wire spec.
			var env *campaign.Env
			var sample *cluster.Cluster
			if s.pool == nil {
				var err error
				if env, err = campaign.NewEnv(spec); err != nil {
					return nil, err
				}
				if sample, err = env.Cluster(); err != nil {
					return nil, err
				}
			}
			// The failure-free baseline depends only on (topology,
			// planner, horizon), not on placement or burst model. A
			// local cell takes it from the failure-free trajectory it
			// records anyway; a coordinator resolves it for the first
			// cell and ships that volume with every later cell's spec.
			baseline := 0
			for _, placement := range s.placements {
				for _, model := range s.models {
					c := cell{s.topoNames[i], name, placement.String(), model.String()}
					gen := s.gen
					gen.Model = model
					start := time.Now()
					var rep *campaign.Report
					var err error
					if s.pool != nil {
						spec.Placement = placement
						rep, err = s.remote(spec, gen, baseline)
					} else {
						rep, err = s.local(c, env.SetupFor(placement), sample, gen)
					}
					if err != nil {
						return nil, fmt.Errorf("cell %s/%s/%s/%s: %w", c.Topology, c.Planner, c.Placement, c.Model, err)
					}
					baseline = rep.BaselineSinkTuples
					rows = append(rows, newRow(c, rep, time.Since(start)))
				}
			}
		}
	}
	return rows, nil
}

// remote ships one cell to the coordinator pool as a self-contained
// wire spec.
func (s *sweep) remote(spec campaign.EnvSpec, gen campaign.GenSpec, baseline int) (*campaign.Report, error) {
	wire, err := campaign.NewWireSpec(spec, []campaign.GenSpec{gen})
	if err != nil {
		return nil, err
	}
	wire.Horizon, wire.Workers, wire.Shards = s.cfg.Horizon, s.cfg.Workers, s.cfg.Shards
	wire.Baseline, wire.StopTol = baseline, s.cfg.StopTol
	return s.pool.RunJob(context.Background(), wire)
}

// local runs one cell in this process, streaming each result to the
// -results sink, the CRN pairing and the -progress meter.
func (s *sweep) local(c cell, setup func() (engine.Setup, error), sample *cluster.Cluster, gen campaign.GenSpec) (*campaign.Report, error) {
	scs, err := campaign.Generate(sample, gen)
	if err != nil {
		return nil, err
	}
	cfg := s.cfg
	cfg.Setup, cfg.Scenarios = setup, scs
	var meter *progressMeter
	if s.progress {
		meter = newProgressMeter(s.stderr, c.Topology+"/"+c.Planner+"/"+c.Placement+"/"+c.Model, len(scs))
	}
	pairObs := s.pairs.observer(c, len(scs))
	if s.sink != nil || meter != nil || pairObs != nil {
		cfg.OnResult = func(r campaign.ScenarioResult) {
			if s.sink != nil {
				s.sink.write(c, r)
			}
			if pairObs != nil {
				pairObs(r)
			}
			if meter != nil {
				meter.tick()
			}
		}
	}
	rep, err := campaign.Run(cfg)
	if err != nil {
		return nil, err
	}
	if meter != nil {
		meter.done(rep.Summary.ESS, stopReason(rep))
	}
	if s.sink != nil {
		if err := s.sink.err(); err != nil {
			return nil, fmt.Errorf("writing %s: %w", s.results, err)
		}
	}
	return rep, nil
}

// cell names one sweep cell.
type cell struct {
	Topology  string `json:"topology"`
	Planner   string `json:"planner"`
	Placement string `json:"placement"`
	Model     string `json:"model"`
}

// row is one aggregated sweep cell.
type row struct {
	cell
	Scenarios   int `json:"scenarios"`
	Unrecovered int `json:"unrecovered"`
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

func newRow(c cell, rep *campaign.Report, wall time.Duration) row {
	sum := rep.Summary
	return row{
		cell:             c,
		Scenarios:        sum.Scenarios,
		Unrecovered:      sum.Unrecovered,
		ESS:              sum.ESS,
		StopReason:       stopReason(rep),
		Latency:          sum.Latency,
		Loss:             sum.Loss,
		FailedTasks:      sum.FailedTasks,
		Tentative:        sum.TentativeFrac,
		Corrected:        sum.CorrectedFrac,
		TimeToCorrection: sum.TimeToCorrection,
		Baseline:         rep.BaselineSinkTuples,
		Wall:             wall.Seconds(),
	}
}

// stopReason names how a campaign cell ended: halted by the CI-driven
// stop rule, or ran its full scenario list.
func stopReason(rep *campaign.Report) string {
	if rep.Stopped {
		return "early-stop"
	}
	return "exhausted"
}

// scenarioRow is one streamed per-scenario record: the sweep cell it
// belongs to plus the scenario's own outcome. Written as the sweep
// runs, so -results files grow with the campaign instead of a
// post-hoc dump of retained results.
type scenarioRow struct {
	cell
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

func (s *resultSink) write(c cell, res campaign.ScenarioResult) {
	if s.lastErr != nil {
		return
	}
	r := scenarioRow{
		cell:          c,
		Scenario:      res.Scenario.Index,
		Label:         res.Scenario.Label,
		FailedTasks:   res.FailedTasks,
		Recovered:     res.Recovered,
		LatencyS:      float64(res.WorstLatency),
		SinkTuples:    res.SinkTuples,
		OutputLoss:    res.OutputLoss,
		TentativeFrac: res.TentativeFrac,
		CorrectedFrac: res.CorrectedFrac,
		Corrections:   len(res.CorrectionDelays),
	}
	if s.enc != nil {
		s.lastErr = s.enc.Encode(&r)
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
	w     io.Writer
	label string
	total int
	n     int
	start time.Time
	last  time.Time
}

func newProgressMeter(w io.Writer, label string, total int) *progressMeter {
	now := time.Now()
	return &progressMeter{w: w, label: label, total: total, start: now, last: now}
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
	fmt.Fprintf(p.w, "\r%s: %d/%d scenarios (%.0f/s)", p.label, p.n, p.total, rate)
}

// done paints the final progress line, annotated with the cell's
// effective sample size and how it ended (early-stop under -ci-tol vs
// exhausting its scenario list).
func (p *progressMeter) done(ess float64, reason string) {
	p.print()
	fmt.Fprintf(p.w, " ess=%.0f %s\n", ess, reason)
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
// Only meaningful under -crn (both cells replay identical draws); nil
// when pairing is off.
type pairedSet struct {
	cells map[pairedKey]*pairedCell
	order []pairedKey
}

// observer returns the per-result callback feeding one sweep cell into
// its pair, or nil when pairing is off.
func (ps *pairedSet) observer(c cell, n int) func(campaign.ScenarioResult) {
	if ps == nil {
		return nil
	}
	k := pairedKey{c.Topology, c.Planner, c.Model}
	pc := ps.cells[k]
	if pc == nil {
		pc = &pairedCell{loss: campaign.NewPaired(n), lat: campaign.NewPaired(n)}
		ps.cells[k] = pc
		ps.order = append(ps.order, k)
	}
	if c.Placement == cluster.PlacementAntiAffinity.String() {
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

// render writes the rows in the -format encoding; the table adds the
// head-to-head comparison and, when pairs is set, the CRN-paired one.
func render(w io.Writer, format string, rows []row, pairs *pairedSet) error {
	switch format {
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	case "csv":
		return writeCSV(w, rows)
	}
	writeTable(w, rows)
	if pairs != nil {
		pairs.writeTo(w)
	}
	return nil
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
	type pair struct{ aa, rr *row } // each placement's first row
	pairs := map[pairedKey]*pair{}
	var order []pairedKey
	for i := range rows {
		r := &rows[i]
		k := pairedKey{r.Topology, r.Planner, r.Model}
		p := pairs[k]
		if p == nil {
			p = &pair{}
			pairs[k] = p
			order = append(order, k)
		}
		if r.Placement == cluster.PlacementAntiAffinity.String() && p.aa == nil {
			p.aa = r
		} else if r.Placement == cluster.PlacementRoundRobin.String() && p.rr == nil {
			p.rr = r
		}
	}
	printed := false
	for _, k := range order {
		a, b := pairs[k].aa, pairs[k].rr
		if a == nil || b == nil {
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
