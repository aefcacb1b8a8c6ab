// Package experiments regenerates every figure of the evaluation
// section (§VI) of Su & Zhou (ICDE 2016). Each driver returns a Result
// whose series mirror the lines/bars of the corresponding figure; the
// cmd/ppabench tool prints them and bench_test.go wraps them as Go
// benchmarks. See DESIGN.md for the experiment index.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Point is one measurement: an x-axis label and a value.
type Point struct {
	X string
	Y float64
}

// Series is one line/bar group of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Result is the reproduction of one figure.
type Result struct {
	Figure string // e.g. "Fig. 7"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// String renders the result as an aligned text table (rows = x values,
// columns = series). A column is 16 characters wide, or its series name
// plus 2 when that is longer, so names never run together.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.Figure, r.Title)
	// column order = series order; row order = first appearance
	var xs []string
	seen := map[string]bool{}
	for _, s := range r.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	w := len(r.XLabel)
	for _, x := range xs {
		if len(x) > w {
			w = len(x)
		}
	}
	cols := make([]int, len(r.Series))
	fmt.Fprintf(&b, "%-*s", w+2, r.XLabel)
	for i, s := range r.Series {
		cols[i] = max(16, len(s.Name)+2)
		fmt.Fprintf(&b, "%*s", cols[i], s.Name)
	}
	fmt.Fprintf(&b, "    (%s)\n", r.YLabel)
	for _, x := range xs {
		fmt.Fprintf(&b, "%-*s", w+2, x)
		for i, s := range r.Series {
			if v, ok := lookup(s, x); ok {
				fmt.Fprintf(&b, "%*.3f", cols[i], v)
			} else {
				fmt.Fprintf(&b, "%*s", cols[i], "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func lookup(s Series, x string) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// seriesByName returns a stable ordering helper used by tests.
func seriesByName(rs []Series) map[string]Series {
	out := make(map[string]Series, len(rs))
	for _, s := range rs {
		out[s.Name] = s
	}
	return out
}

// mean computes the average of a slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// sortedKeys returns the sorted keys of a string-keyed map.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
