package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// minRuns is the fewest runs per side -compare accepts for a metric.
const minRuns = 5

// declaredMetric is one metric as BENCHMARK.json declares it.
type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// declaration is the part of BENCHMARK.json the harness reads.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readDeclaration(path string) (declaration, error) {
	var d declaration
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

func readResultSet(path string) (resultSet, error) {
	var s resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the default exclusive
// method). xs needs at least two values.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out
}

// verdict is the outcome of comparing one metric of one workload.
type verdict string

const (
	better     verdict = "better"
	worse      verdict = "worse"
	unchanged  verdict = "unchanged"
	unresolved verdict = "unresolved"
)

// comparison is one (workload, metric) row of a -compare report.
type comparison struct {
	Workload, Metric string
	A, B             [3]float64 // quartiles; [1] is the median
	WinsB, WinsA     int        // pairs (run i of A, run i of B) each side won
	Verdict          verdict
}

// judge compares run values a (the parent) and b (the change) of one
// metric, where higherBetter gives the metric's direction and bound the
// share of a's median by which b's median may be worse:
//   - better: b wins at least nine tenths of the pairs and the medians
//     differ, in b's favour, by more than a's interquartile range;
//   - unresolved: otherwise, when either side's interquartile range is
//     wider than bound times its median, unless every run of b reads
//     better than every run of a;
//   - worse: b's median is worse than a's by more than the bound;
//   - unchanged: anything else.
func judge(a, b []float64, higherBetter bool, bound float64) comparison {
	c := comparison{A: quartiles(a), B: quartiles(b)}
	sign := 1.0
	if !higherBetter {
		sign = -1
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		switch d := sign * (b[i] - a[i]); {
		case d > 0:
			c.WinsB++
		case d < 0:
			c.WinsA++
		}
	}
	pairs := min(len(a), len(b))
	medA, medB := c.A[1], c.B[1]
	gain := sign * (medB - medA)
	spread := func(q [3]float64) float64 { return (q[2] - q[0]) / math.Abs(q[1]) }
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case 10*c.WinsB >= 9*pairs && gain > c.A[2]-c.A[0]:
		c.Verdict = better
	case (spread(c.A) > bound || spread(c.B) > bound) && !allBetter:
		c.Verdict = unresolved
	case -gain > bound*math.Abs(medA):
		c.Verdict = worse
	default:
		c.Verdict = unchanged
	}
	return c
}

// compareSets judges every end-to-end metric of every workload found in
// both sets, plus the failed fraction, which may not grow at all.
func compareSets(d declaration, a, b resultSet) ([]comparison, error) {
	values := func(s resultSet, wl, name string) []float64 {
		var out []float64
		for _, r := range s.Runs {
			if mv, ok := r.Result.Metrics[name]; r.Workload == wl && ok {
				out = append(out, mv.Value)
			}
		}
		return out
	}
	failedFrac := func(s resultSet, wl string) float64 {
		var att, fail int
		for _, r := range s.Runs {
			if r.Workload == wl {
				att += r.Result.Attempted
				fail += r.Result.Failed
			}
		}
		if att == 0 {
			return 1
		}
		return float64(fail) / float64(att)
	}
	var out []comparison
	for _, w := range d.Workloads {
		for _, m := range d.EndToEnd {
			va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			if len(va) < minRuns || len(vb) < minRuns {
				return nil, fmt.Errorf("%s %s: %d and %d runs, need at least %d each", w.Name, m.Name, len(va), len(vb), minRuns)
			}
			c := judge(va, vb, m.Better == "higher", m.Bound)
			c.Workload, c.Metric = w.Name, m.Name
			out = append(out, c)
		}
		fa, fb := failedFrac(a, w.Name), failedFrac(b, w.Name)
		c := comparison{Workload: w.Name, Metric: "failed_frac", A: [3]float64{fa, fa, fa}, B: [3]float64{fb, fb, fb}, Verdict: unchanged}
		switch {
		case fb > fa:
			c.Verdict = worse
		case fb < fa:
			c.Verdict = better
		}
		out = append(out, c)
	}
	return out, nil
}

// compareFiles prints the comparison of result sets pathA (the parent)
// and pathB (the change) and reports whether any metric got worse.
func compareFiles(w io.Writer, declPath, pathA, pathB string) (bool, error) {
	d, err := readDeclaration(declPath)
	if err != nil {
		return false, err
	}
	a, err := readResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return false, err
	}
	rows, err := compareSets(d, a, b)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A %s (%s)\nB %s (%s)\n", pathA, a.Manifest.GitSHA, pathB, b.Manifest.GitSHA)
	fmt.Fprintf(w, "%-20s %-24s %12s %12s %12s | %12s %12s %12s | %5s %5s  %s\n",
		"workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "B won", "A won", "verdict")
	regressed := false
	for _, c := range rows {
		fmt.Fprintf(w, "%-20s %-24s %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g | %5d %5d  %s\n",
			c.Workload, c.Metric, c.A[0], c.A[1], c.A[2], c.B[0], c.B[1], c.B[2], c.WinsB, c.WinsA, c.Verdict)
		if c.Verdict == worse {
			regressed = true
		}
	}
	return regressed, nil
}
