package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/sim"
)

// TestMain lets the dist-small smoke run re-execute the test binary as
// its coord workers, the way the benchmark binary re-executes itself.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		if err := serveWorker(); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tinyScenarios is N per cell in the smoke test; the cascade workload
// keeps enough scenarios for its stop rule to be evaluated.
var tinyScenarios = map[string]int{
	"sweep-medium": 8, "sweep-large-paired": 6, "cascade-tilted-stop": 96, "dist-small": 24,
}

var tinyTraced = tracedOptions{scenarios: 6, chunk: 3, coordJobs: 1, repeats: 3}

// printed parses a run's output: the "workload metric value unit" lines
// and the result object on the last line.
func printed(t *testing.T, out []byte) (map[string]metricValue, result) {
	t.Helper()
	lines := map[string]metricValue{}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "manifest ") {
			continue
		}
		last = line
		f := strings.Fields(line)
		if len(f) != 4 {
			continue
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Errorf("metric line %q: %v", line, err)
		}
		lines[f[1]] = metricValue{v, f[3]}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("last line %q is not a result: %v", last, err)
	}
	return lines, res
}

// checkDeclared requires the printed metrics and the result's metrics
// to be exactly the declared ones, each finite and in its declared unit.
func checkDeclared(t *testing.T, decl []declaredMetric, lines map[string]metricValue, res result) {
	t.Helper()
	if len(lines) != len(decl) || len(res.Metrics) != len(decl) {
		t.Errorf("printed %d metric lines and %d result metrics, declared %d", len(lines), len(res.Metrics), len(decl))
	}
	for _, d := range decl {
		for what, got := range map[string]map[string]metricValue{"line": lines, "result": res.Metrics} {
			mv, ok := got[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: declared metric %s missing", what, d.Name)
			case mv.Unit != d.Unit:
				t.Errorf("%s: %s in %q, declared %q", what, d.Name, mv.Unit, d.Unit)
			case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
				t.Errorf("%s: %s = %v", what, d.Name, mv.Value)
			}
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}

// TestSmoke runs every workload traced at a tiny N and checks both its
// end-to-end and its per-layer output against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	decl, err := readDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(decl.Workloads), len(workloads))
	}
	for _, dw := range decl.Workloads {
		w, err := lookupWorkload(dw.Name)
		if err != nil {
			t.Fatal(err)
		}
		w.Scenarios = tinyScenarios[w.Name]
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(context.Background(), w, runOptions{
				seed: 1, trace: true, traceDir: t.TempDir(), traced: tinyTraced,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, trace := range []bool{false, true} {
				res.trace = trace
				var out bytes.Buffer
				if err := res.print(&out); err != nil {
					t.Fatalf("%v: %v", err, res.manifest.Problems)
				}
				lines, r := printed(t, out.Bytes())
				if trace {
					checkDeclared(t, decl.PerLayer, lines, r)
				} else {
					checkDeclared(t, decl.EndToEnd, lines, r)
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f, add float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x*f + add
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name         string
		a, b         []float64
		higherBetter bool
		want         verdict
	}{
		{"faster", steady, scale(steady, 1.2, 0), true, better},
		{"slower", steady, scale(steady, 0.8, 0), true, worse},
		{"slower-lower-better", steady, scale(steady, 1.2, 0), false, worse},
		{"cheaper-lower-better", steady, scale(steady, 0.8, 0), false, better},
		{"same", steady, scale(steady, 1, 0.5), true, unchanged},
		{"within-bound", steady, scale(steady, 0.95, 0), true, unchanged},
		{"noisy", wide, scale(wide, 0.97, 0), true, unresolved},
		{"noisy-but-all-better", wide, scale(wide, 1, 100), true, better},
	} {
		if got := judge(tc.a, tc.b, tc.higherBetter, 0.1); got.Verdict != tc.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", tc.name, got.Verdict, tc.want, got)
		}
	}
}

func TestCompareSetsFailedFracAndRunCount(t *testing.T) {
	decl := declaration{EndToEnd: []declaredMetric{{Name: "scenarios_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}}}
	decl.Workloads = append(decl.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	set := func(runs, failed int) resultSet {
		var s resultSet
		for i := 0; i < runs; i++ {
			s.Runs = append(s.Runs, savedRun{Workload: "w", Result: result{
				Attempted: 100, Failed: failed,
				Metrics: map[string]metricValue{"scenarios_per_s": {100 + float64(i%2), "1/s"}},
			}})
		}
		return s
	}
	rows, err := compareSets(decl, set(5, 0), set(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Verdict != unchanged || rows[1].Metric != "failed_frac" || rows[1].Verdict != worse {
		t.Fatalf("rows = %+v", rows)
	}
	if _, err := compareSets(decl, set(4, 0), set(5, 0)); err == nil {
		t.Fatal("4 runs accepted")
	}
}

// TestCorruptedResultRejected feeds the correctness checks results that
// differ from a valid one in a single field, or in a single byte of a
// shard state, and requires each to be rejected.
func TestCorruptedResultRejected(t *testing.T) {
	w, err := lookupWorkload("dist-small")
	if err != nil {
		t.Fatal(err)
	}
	w.Scenarios = 16
	p, err := setup(workload{Name: w.Name, Topo: w.Topo, Scenarios: w.Scenarios, Horizon: w.Horizon, Shards: 4, Cells: w.Cells})
	if err != nil {
		t.Fatal(err)
	}
	pl := p.planned[w.Cells[0].Planner]
	gen, err := w.genSpec(w.Cells[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	scs, err := campaign.Generate(pl.sample, gen)
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.Config{Setup: pl.env.Setup, Scenarios: scs, Horizon: sim.Time(w.Horizon), Shards: 4, Baseline: pl.base}
	rep, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Shards = 4
	if errs := checkCell(w, rep); len(errs) > 0 {
		t.Fatalf("valid report rejected: %v", errs)
	}
	for name, corrupt := range map[string]func(r *campaign.Report){
		"scenario count": func(r *campaign.Report) { r.Summary.Scenarios-- },
		"stopped prefix": func(r *campaign.Report) { r.Stopped = true; r.Summary.Scenarios = 3 },
		"unrecovered":    func(r *campaign.Report) { r.Summary.Unrecovered = r.Summary.Scenarios + 1 },
		"loss above 1":   func(r *campaign.Report) { r.Summary.Loss.Max = 1.5 },
		"negative loss":  func(r *campaign.Report) { r.Summary.Loss.P50 = -0.1 },
		"NaN loss":       func(r *campaign.Report) { r.Summary.Loss.Mean = math.NaN() },
		"baseline":       func(r *campaign.Report) { r.BaselineSinkTuples = 0 },
		"ESS":            func(r *campaign.Report) { r.Summary.ESS = 0 },
	} {
		bad := *rep
		corrupt(&bad)
		if errs := checkCell(w, &bad); len(errs) == 0 {
			t.Errorf("corrupted %s accepted", name)
		}
	}

	states, err := campaign.RunRange(cfg, campaign.Range{Lo: 0, Hi: len(scs)})
	if err != nil {
		t.Fatal(err)
	}
	merge := func(states []campaign.ShardState) []error {
		sum, err := campaign.MergeShardStates(states)
		return mergeCheck(sum, err, nil, rep)
	}
	if errs := merge(states); len(errs) > 0 {
		t.Fatalf("valid shard states rejected: %v", errs)
	}
	for name, corrupt := range map[string]func(st []campaign.ShardState){
		"sketch byte":    func(st []campaign.ShardState) { st[0].Loss[len(st[0].Loss)/2] ^= 0x40 },
		"scenario count": func(st []campaign.ShardState) { st[1].Scenarios++ },
		"missing shard":  func(st []campaign.ShardState) { st[2] = st[3] },
	} {
		bad := make([]campaign.ShardState, len(states))
		for i, s := range states {
			s.Loss = append([]byte(nil), s.Loss...)
			bad[i] = s
		}
		corrupt(bad)
		if errs := merge(bad); len(errs) == 0 {
			t.Errorf("corrupted %s accepted", name)
		}
	}
}
