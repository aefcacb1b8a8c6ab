package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestMain serves as a coordinator's worker process when the test
// binary is re-executed with "-role worker", which is how a
// coordinator sweep spawns its workers, so the coordinator test runs
// real worker processes without a separate binary.
func TestMain(m *testing.M) {
	if slices.Equal(os.Args[1:], []string{"-role", "worker"}) {
		if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sweepArgs is the pinned sweep: the small preset, a replicating
// planner beside checkpoint-only recovery, both placements, two burst
// models, CRN draws and tilted cascades, so its table holds the rows,
// the head-to-head and the CRN-paired deltas. The goldens under
// testdata/ are its outputs.
var sweepArgs = []string{
	"-topos", "small", "-planners", "sa,none", "-models", "domain,cascade",
	"-placement", "anti-affinity,round-robin", "-scenarios", "8", "-crn", "-tilt", "2",
}

// runSweep runs ppastorm with args and returns its stdout and stderr.
func runSweep(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return out.String(), errOut.String()
}

// wallTime matches the wall-clock seconds of a CSV or JSON report row,
// the only bytes that differ between two runs of one sweep.
var wallTime = regexp.MustCompile(`(?m)(^[a-z].*,|"wall_seconds": )[0-9.e+-]+$`)

func maskWall(s string) string { return wallTime.ReplaceAllString(s, "${1}0") }

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func checkGolden(t *testing.T, what, got, name string) {
	t.Helper()
	if want := golden(t, name); got != want {
		t.Errorf("%s differs from testdata/%s:\n%s", what, name, got)
	}
}

func TestRunTable(t *testing.T) {
	got, stderr := runSweep(t, sweepArgs...)
	checkGolden(t, "table", got, "sweep.txt")
	if stderr != "" {
		t.Errorf("stderr %q, want none", stderr)
	}
}

// TestRunReportsAndResults pins the CSV and JSON reports of the sweep,
// wall time masked, and the -results rows it streams in both forms.
func TestRunReportsAndResults(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ format, report, results string }{
		{"csv", "sweep.csv", "results.csv"},
		{"json", "sweep.json", "results.jsonl"},
	} {
		path := filepath.Join(dir, tc.results)
		got, _ := runSweep(t, append(slices.Clone(sweepArgs), "-format", tc.format, "-results", path)...)
		checkGolden(t, tc.format+" report", maskWall(got), tc.report)
		rows, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "-results rows", string(rows), tc.results)
	}
}

// TestRunCoordinator runs the sweep through two worker processes. Its
// CSV rows equal the single-process ones. Its table is the
// single-process table without the CRN-paired deltas, which need the
// per-scenario stream, and stderr says in one line that they were
// skipped.
func TestRunCoordinator(t *testing.T) {
	coordArgs := append([]string{"-role", "coordinator", "-workers-proc", "2"}, sweepArgs...)
	got, _ := runSweep(t, append(slices.Clone(coordArgs), "-format", "csv")...)
	checkGolden(t, "coordinator csv report", maskWall(got), "sweep.csv")

	got, stderr := runSweep(t, coordArgs...)
	want, _, ok := strings.Cut(golden(t, "sweep.txt"), "\nCRN-paired deltas")
	if !ok {
		t.Fatal("testdata/sweep.txt has no CRN-paired table")
	}
	if got != want {
		t.Errorf("coordinator table:\n%s\nwant\n%s", got, want)
	}
	if strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, "CRN-paired") {
		t.Errorf("stderr %q, want one line noting the skipped CRN-paired table", stderr)
	}
}

// TestRunDomainBurstLatency: on the medium preset, under sa and greedy,
// single-node and whole-domain bursts both take a positive p95
// recovery latency, and a whole-domain outage does not recover
// implausibly faster than a single node: its p95 is at least half the
// single-node p95.
func TestRunDomainBurstLatency(t *testing.T) {
	out, _ := runSweep(t, "-topos", "medium", "-planners", "sa,greedy", "-models", "single,domain",
		"-scenarios", "6", "-format", "json")
	var rows []row
	if err := json.Unmarshal([]byte(out), &rows); err != nil {
		t.Fatal(err)
	}
	p95 := map[string]float64{}
	for _, r := range rows {
		p95[r.Planner+"/"+r.Model] = r.Latency.P95
	}
	if len(rows) != 4 || len(p95) != 4 {
		t.Fatalf("%d rows over %d (planner, model) cells, want 4 and 4", len(rows), len(p95))
	}
	for _, planner := range []string{"sa", "greedy"} {
		single, domain := p95[planner+"/single"], p95[planner+"/domain"]
		if single <= 0 || domain <= 0 {
			t.Errorf("%s: non-positive p95 latencies (single=%v domain=%v)", planner, single, domain)
		}
		if domain < single*0.5 {
			t.Errorf("%s: whole-domain p95 (%v) implausibly below single-node p95 (%v)", planner, domain, single)
		}
	}
}

// TestRunPairedTable: with -crn and both placements, the CRN-paired
// table has one row per (topology, planner, model), and each row pairs
// all -scenarios scenarios.
func TestRunPairedTable(t *testing.T) {
	const scenarios = 5
	out, _ := runSweep(t, "-topos", "small,medium", "-planners", "greedy", "-models", "single,cascade",
		"-placement", "anti-affinity,round-robin", "-scenarios", strconv.Itoa(scenarios), "-crn", "-tilt", "2")
	_, paired, ok := strings.Cut(out, "CRN-paired deltas")
	if !ok {
		t.Fatalf("no CRN-paired table in\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(paired), "\n")[2:] // title rest, header
	var cells []string
	for _, line := range lines {
		f := strings.Fields(line)
		cells = append(cells, strings.Join(f[:3], "/"))
		if f[3] != strconv.Itoa(scenarios) {
			t.Errorf("%s: %s pairs, want %d", cells[len(cells)-1], f[3], scenarios)
		}
	}
	want := []string{"small/greedy/single", "small/greedy/cascade", "medium/greedy/single", "medium/greedy/cascade"}
	if !slices.Equal(cells, want) {
		t.Errorf("paired rows %v, want %v", cells, want)
	}
}

// TestRunRejectsBadFlags checks that every flag value the sweep would
// trip over mid-run, or silently replace with a default, is an error
// naming the flag, returned before the first cell: nothing is printed
// and -results is never created.
func TestRunRejectsBadFlags(t *testing.T) {
	results := filepath.Join(t.TempDir(), "rows.csv")
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-format", "xml"}, "-format"},
		{[]string{"-topos", "medium,huge"}, "-topos"},
		{[]string{"-planners", "greedy,nope"}, "-planners"},
		{[]string{"-models", "single,meteor"}, "-models"},
		{[]string{"-placement", "anti-affinity,scatter"}, "-placement"},
		{[]string{"-fraction", "0"}, "-fraction"},
		{[]string{"-fraction", "0", "-planners", "none,greedy"}, "-fraction"},
		{[]string{"-fraction", "NaN"}, "-fraction"},
		{[]string{"-fraction", "1.5"}, "-fraction"},
		{[]string{"-scenarios", "0"}, "-scenarios"},
		{[]string{"-correlation", "1.2"}, "-correlation"},
		{[]string{"-correlation", "NaN"}, "-correlation"},
		{[]string{"-tilt", "0.5"}, "-tilt"},
		{[]string{"-ci-tol", "-0.1"}, "-ci-tol"},
		{[]string{"-horizon", "0"}, "-horizon"},
		{[]string{"-horizon", "NaN"}, "-horizon"},
		{[]string{"-horizon", "Inf"}, "-horizon"},
		{[]string{"-fail-at", "200", "-horizon", "150"}, "-fail-at"},
		{[]string{"-fail-at", "-1"}, "-fail-at"},
		{[]string{"-topos", ""}, "-topos"},
		{[]string{"-planners", " , "}, "-planners"},
		{[]string{"-models", ""}, "-models"},
		{[]string{"-placement", ""}, "-placement"},
		{[]string{"-role", "boss"}, "-role"},
		{[]string{"-role", "coordinator"}, "-results"},
		{[]string{"-role", "coordinator", "-workers-proc", "0"}, "-workers-proc"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(append([]string{"-results", results}, tc.args...), &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: error %v, want one naming %s", tc.args, err, tc.flag)
		}
		if stdout.Len() != 0 || stderr.Len() != 0 {
			t.Errorf("%v: printed %q and %q before failing", tc.args, stdout.String(), stderr.String())
		}
		if _, err := os.Stat(results); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%v: -results created before failing (%v)", tc.args, err)
		}
	}
}

// TestRunFractionZeroCheckpointOnly: -fraction 0 replicates nothing,
// which is exactly what -planners none sweeps, so that pairing runs.
func TestRunFractionZeroCheckpointOnly(t *testing.T) {
	out, _ := runSweep(t, "-fraction", "0", "-planners", "none", "-topos", "small", "-models", "single",
		"-scenarios", "2", "-format", "csv")
	if n := strings.Count(out, "\n"); n != 2 {
		t.Errorf("%d CSV lines, want a header and one row:\n%s", n, out)
	}
}
