// Command benchjson converts `go test -bench` text output (read from
// stdin) into a JSON array of benchmark records: name, iterations,
// ns/op, B/op, allocs/op and any custom metrics (the figure drivers
// report values like "of" or "latency s" via b.ReportMetric). CI pipes
// the bench-smoke run through it to publish a BENCH_<sha>.json artifact,
// giving the repo a machine-readable perf trajectory across commits.
//
// With -check, benchjson additionally gates allocation regressions: it
// loads a committed baseline (a benchjson JSON file) and exits non-zero
// when a benchmark present in both runs reports more than -max-regress
// (default 0.20 = +20%) allocs/op or B/op over its baseline. Allocations
// are deterministic enough to gate in CI, unlike wall-clock ns/op. A
// baseline entry with a bytes_retained metric (live-heap growth, the
// peak-memory guard of the streaming campaign aggregation) is gated
// the same way, with 1 MiB of absolute slack on top of the relative
// limit so tiny GC-timing deltas on near-zero baselines don't flap.
// A baseline entry with an effective_samples/s metric additionally
// asserts effective_samples/s >= scenarios/s on the current run: the
// importance-sampled campaign benchmarks must deliver at least the
// statistical throughput of plain Monte-Carlo.
//
// Usage:
//
//	go test -bench=. -benchtime=1x -run='^$' ./... | benchjson > BENCH_abc123.json
//	go test -bench=EngineHotPath -benchmem -benchtime=3x -run='^$' . | benchjson -check bench_baseline.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Record is one parsed benchmark result line.
type Record struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	check := flag.String("check", "", "baseline benchjson JSON file to gate allocs/op and B/op regressions against")
	maxRegress := flag.Float64("max-regress", 0.20, "maximum tolerated relative allocs/op and B/op regression vs the -check baseline")
	flag.Parse()

	records, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(records); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *check != "" {
		if err := gate(records, *check, *maxRegress); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
}

// gate compares allocs/op, B/op and bytes_retained of the current
// records against the baseline file and fails on a regression beyond
// maxRegress. Benchmarks missing on either side are skipped (the
// baseline pins selected benchmarks, not the whole suite); a baseline
// entry without allocs/op or B/op carries no gate on that figure, and
// one without a bytes_retained metric no retained-heap gate.
func gate(records []Record, baselinePath string, maxRegress float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var baseline []Record
	if err := json.Unmarshal(data, &baseline); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	current := make(map[string]Record, len(records))
	for _, r := range records {
		current[r.Name] = r
	}
	checked := 0
	for _, b := range baseline {
		r, ok := current[b.Name]
		if !ok {
			continue
		}
		for _, m := range []struct {
			unit      string
			base, got float64
		}{
			{"allocs/op", b.AllocsPerOp, r.AllocsPerOp},
			{"B/op", b.BytesPerOp, r.BytesPerOp},
		} {
			if m.base <= 0 {
				continue
			}
			checked++
			limit := m.base * (1 + maxRegress)
			if m.got > limit {
				return fmt.Errorf("%s %s regressed: %.0f vs baseline %.0f (limit %.0f, +%.0f%%)",
					b.Name, m.unit, m.got, m.base, limit, 100*(m.got/m.base-1))
			}
			fmt.Fprintf(os.Stderr, "benchjson: %s %s %.0f within %.0f%% of baseline %.0f\n",
				b.Name, m.unit, m.got, 100*maxRegress, m.base)
		}
		if base, gated := b.Metrics["bytes_retained"]; gated {
			checked++
			limit := base*(1+maxRegress) + 1<<20
			got := r.Metrics["bytes_retained"]
			if got > limit {
				return fmt.Errorf("%s bytes_retained regressed: %.0f vs baseline %.0f (limit %.0f)",
					b.Name, got, base, limit)
			}
			fmt.Fprintf(os.Stderr, "benchjson: %s bytes_retained %.0f within limit %.0f (baseline %.0f)\n",
				b.Name, got, limit, base)
		}
		// A baseline entry carrying both throughput metrics asserts the
		// importance-sampling invariant: the effective-sample rate must
		// not fall below the raw scenario rate — a tilted campaign whose
		// ESS/s dropped under scenarios/s is burning simulation time on a
		// variance-increasing tilt. Gated against the current run's own
		// two metrics (both share the run's wall clock, so the comparison
		// is machine-independent); the tiny slack absorbs float noise.
		if _, gated := b.Metrics["effective_samples/s"]; gated {
			essRate, scRate := r.Metrics["effective_samples/s"], r.Metrics["scenarios/s"]
			if scRate > 0 {
				checked++
				if essRate < scRate*0.999 {
					return fmt.Errorf("%s effective_samples/s %.1f fell below scenarios/s %.1f: the tilt is increasing variance",
						b.Name, essRate, scRate)
				}
				fmt.Fprintf(os.Stderr, "benchjson: %s effective_samples/s %.1f >= scenarios/s %.1f\n",
					b.Name, essRate, scRate)
			}
		}
		// A baseline entry with a ci_width_ratio metric asserts the
		// common-random-numbers invariant: the paired delta CI must stay
		// at most half the width of the independent-campaigns CI (i.e.
		// CRN pairing reaches a target half-width with >= 4x fewer
		// scenarios). The campaigns are seeded and deterministic, so the
		// ratio is stable enough to gate well above the floor.
		if _, gated := b.Metrics["ci_width_ratio"]; gated {
			checked++
			got := r.Metrics["ci_width_ratio"]
			if got < 2 {
				return fmt.Errorf("%s ci_width_ratio %.2f below 2: CRN pairing lost its variance advantage",
					b.Name, got)
			}
			fmt.Fprintf(os.Stderr, "benchjson: %s ci_width_ratio %.2f >= 2\n", b.Name, got)
		}
	}
	if checked == 0 {
		return fmt.Errorf("no benchmark in the run matched a gated baseline entry in %s", baselinePath)
	}
	return nil
}

// parse extracts benchmark lines of the form
//
//	BenchmarkName-8   12  3456 ns/op  78 B/op  9 allocs/op  0.95 of
//
// Non-benchmark lines (package headers, PASS/ok, skips) are ignored.
func parse(sc *bufio.Scanner) ([]Record, error) {
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	records := []Record{}
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "BenchmarkX --- SKIP"
		}
		r := Record{Name: trimProcSuffix(fields[0]), Iterations: iters}
		// The remainder is (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", sc.Text(), fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = v
			}
		}
		records = append(records, r)
	}
	return records, sc.Err()
}

// trimProcSuffix drops the -GOMAXPROCS suffix Go appends to benchmark
// names, so records compare across machines with different core counts.
func trimProcSuffix(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}
