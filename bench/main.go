// Command campaign-bench is the repository's benchmark: failure-campaign
// sweeps measured end to end, plus a traced run that times each layer's
// public functions from the outside. README.md describes the workloads,
// the metrics and how to run it; run.sh builds and runs it from the root
// of a checkout.
//
// One workload in this process, as the benchmark driver calls it:
//
//	campaign-bench -workload sweep-medium -seed 1 -seconds 20 -trace 0
//
// Every workload, each in its own process, repeated and saved:
//
//	campaign-bench [-trace 1] [-runs 5] [-seed 1] [-o results.json]
//
// Two saved result sets compared against the bounds in BENCHMARK.json:
//
//	campaign-bench -compare a.json b.json
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/campaign"
)

func main() {
	if os.Getenv(workerEnv) == "1" {
		if err := serveWorker(); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		return
	}
	var (
		workloadName = flag.String("workload", "", "run this one workload in this process (default: every workload, each in its own process)")
		seed         = flag.Int64("seed", 1, "workload seed: scenario draws derive from it (2 is held out for checking claims)")
		seconds      = flag.Int("seconds", 20, "length of each workload's timed phase in seconds")
		trace        = flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics instead of the end-to-end ones")
		traceDir     = flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory for the Chrome trace files of traced runs")
		runs         = flag.Int("runs", 1, "with several workloads: repeat the whole set this many times, alternating the workload order")
		out          = flag.String("o", filepath.Join(".bench_build", "results.json"), "with several workloads: result set file to write")
		compare      = flag.Bool("compare", false, "compare the two result set files given as arguments, against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	var err error
	switch {
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare needs two result set files")
			break
		}
		var regressed bool
		regressed, err = compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err == nil && regressed {
			err = errors.New("regression against the benchmark's bounds")
		}
	case *workloadName != "":
		var w workload
		if w, err = lookupWorkload(*workloadName); err != nil {
			break
		}
		var res *runResult
		res, err = runWorkload(context.Background(), w, runOptions{
			seed: *seed, seconds: time.Duration(*seconds) * time.Second,
			trace: *trace == 1, traceDir: *traceDir, traced: defaultTraced,
		})
		if err == nil {
			err = res.print(os.Stdout)
		}
	default:
		err = runAll(*runs, *seed, *seconds, *trace == 1, *traceDir, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign-bench:", err)
		os.Exit(1)
	}
}

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// manifest ties a number to the run that produced it.
type manifest struct {
	GitSHA     string    `json:"git_sha"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"nproc"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Trace      bool      `json:"trace"`
	Workload   *workload `json:"workload,omitempty"`
	Cells      []cellRun `json:"cells,omitempty"`
	Problems   []string  `json:"problems,omitempty"`
}

func newManifest(seed int64, seconds time.Duration, trace bool) manifest {
	return manifest{
		GitSHA: gitSHA(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: seed, Seconds: seconds.Seconds(), Trace: trace,
	}
}

// gitSHA names the commit of the checkout the benchmark runs in, with
// "-dirty" when tracked files differ from it, or "unknown" outside a git
// work tree. Only a .git in the working directory is consulted.
func gitSHA() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	b, err := exec.Command("git", "--git-dir=.git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(b))
	if st, err := exec.Command("git", "--git-dir=.git", "--work-tree=.", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		sha += "-dirty"
	}
	return sha
}

var errIncorrect = errors.New("correctness checks failed")

// runOptions configures one workload run.
type runOptions struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	traceDir string
	traced   tracedOptions
}

// runResult is one workload run: its end-to-end metrics, its per-layer
// metrics when it was traced, its manifest and its verdict. trace
// selects which metrics it prints.
type runResult struct {
	workload           string
	endToEnd, perLayer []metric
	trace              bool
	manifest           manifest
	attempted          int
	failed             int
}

// runWorkload sets the workload up, runs its timed phase and its
// correctness checks and, with opts.trace, the traced run.
func runWorkload(ctx context.Context, w workload, opts runOptions) (*runResult, error) {
	var st setupTimes
	p, err := setupRepeated(w, &st)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.Name, err)
	}
	defer p.close()
	ph, err := p.timedPhase(ctx, opts.seed, opts.seconds, &st)
	if err != nil {
		return nil, err
	}
	if w.Dist {
		checkDistDigest(ph)
	}
	res := &runResult{workload: w.Name, trace: opts.trace, manifest: newManifest(opts.seed, opts.seconds, opts.trace)}
	res.manifest.Workload = &w
	res.manifest.Cells = ph.cells
	// Times are in reference seconds: measured seconds times the host
	// speed (see host.go and setupTimes).
	res.endToEnd = []metric{
		{"setup_s", campaign.NewDist(st.ref).P50, "s"},
		{"scenarios_per_s", float64(ph.scenarios) / ph.refWall, "1/s"},
		{"effective_samples_per_s", ph.ess / ph.refWall, "1/s"},
		{"cpu_ms_per_scenario", ph.refCPU * 1e3 / float64(ph.scenarios), "ms"},
	}
	var tr *tracedResult
	if opts.trace {
		if tr, err = tracedRun(ctx, p, st, ph, opts.seed, opts.traced); err != nil {
			return nil, fmt.Errorf("%s traced run: %w", w.Name, err)
		}
		res.perLayer = tr.metrics
		for _, a := range tr.attr {
			fmt.Fprintf(os.Stderr, "%s %-24s calls %6d  self %10.2f us/scenario (%5.1f%%)  %10.2f KB  %8.1f allocs\n",
				w.Name, a.Span, a.Calls, a.SelfUSPerScenario, 100*a.SelfShareOfScenario, a.KBPerScenario, a.AllocsPerScenario)
		}
	}
	res.manifest.Problems = ph.problems
	res.attempted, res.failed = ph.attempted, ph.failed
	// JSON has no NaN or infinity: such a value is reported as a failed
	// check and printed as 0.
	for _, ms := range [][]metric{res.endToEnd, res.perLayer} {
		for i, m := range ms {
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				res.failed++
				res.manifest.Problems = append(res.manifest.Problems, fmt.Sprintf("metric %s is %v", m.name, m.value))
				ms[i].value = 0
			}
		}
	}
	if tr != nil {
		path := filepath.Join(opts.traceDir, w.Name+".trace.json")
		if err := writeTrace(path, tr.events, map[string]any{"manifest": res.manifest, "attribution": tr.attr}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// metrics returns the metrics the run prints.
func (r *runResult) metrics() []metric {
	if r.trace {
		return r.perLayer
	}
	return r.endToEnd
}

func (r *runResult) result() result {
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range r.metrics() {
		out.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	return out
}

// print writes one "workload metric value unit" line per metric, the
// manifest line and, last, the result object. A run whose checks failed
// prints everything and then returns errIncorrect.
func (r *runResult) print(w io.Writer) error {
	for _, m := range r.metrics() {
		fmt.Fprintf(w, "%s %s %s %s\n", r.workload, m.name, formatValue(m.value), m.unit)
	}
	for _, p := range r.manifest.Problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	mb, err := json.Marshal(r.manifest)
	if err != nil {
		return err
	}
	rb, err := json.Marshal(r.result())
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "manifest %s\n%s\n", mb, rb); err != nil {
		return err
	}
	if r.failed > 0 {
		return errIncorrect
	}
	return nil
}

func formatValue(v float64) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprint(v)
	}
	return string(b)
}

// resultSet is the file runAll writes and -compare reads.
type resultSet struct {
	Manifest manifest   `json:"manifest"`
	Runs     []savedRun `json:"runs"`
}

type savedRun struct {
	Run      int             `json:"run"`
	Workload string          `json:"workload"`
	Result   result          `json:"result"`
	Manifest json.RawMessage `json:"manifest"`
}

// runAll runs every workload, each in its own process, runs times,
// reversing the workload order on every other repetition, and writes the
// result set. It fails when any run fails or reports an incorrect
// result, after running the rest.
func runAll(runs int, seed int64, seconds int, traced bool, traceDir, out string) error {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	set := resultSet{Manifest: newManifest(seed, time.Duration(seconds)*time.Second, traced)}
	var failures []string
	for run := 0; run < runs; run++ {
		order := append([]string(nil), names...)
		if run%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", trace, "-trace-dir", traceDir)
			cmd.Stderr = os.Stderr
			sr, err := runChild(name, cmd, os.Stdout)
			if err != nil {
				failures = append(failures, fmt.Sprintf("run %d %s: %v", run, name, err))
			}
			if sr != nil {
				sr.Run = run
				set.Runs = append(set.Runs, *sr)
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", out)
	if len(failures) > 0 {
		return errors.New(strings.Join(failures, "; "))
	}
	return nil
}

// runChild runs the process of one workload, copies its metric lines to
// w and parses its manifest and result lines.
func runChild(name string, cmd *exec.Cmd, w io.Writer) (*savedRun, error) {
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sr := savedRun{Workload: name}
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "manifest "):
			sr.Manifest = json.RawMessage(strings.TrimPrefix(line, "manifest "))
		case strings.HasPrefix(line, "{"):
			last = line
		default:
			fmt.Fprintln(w, line)
		}
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	if last == "" {
		return nil, errors.Join(errors.New("no result line"), scanErr, waitErr)
	}
	if err := json.Unmarshal([]byte(last), &sr.Result); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if err := errors.Join(scanErr, waitErr); err != nil {
		return &sr, err
	}
	if !sr.Result.Correct {
		return &sr, errIncorrect
	}
	return &sr, nil
}
