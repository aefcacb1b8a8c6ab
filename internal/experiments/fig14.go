package experiments

import (
	"fmt"

	"repro/internal/plan"
	"repro/internal/randtopo"
)

// fig14Fractions is the replication-ratio sweep of Fig. 14.
var fig14Fractions = []float64{0.1, 0.2, 0.4, 0.6, 0.8}

// variant is one line pair of a Fig. 14 subfigure: the topologies
// drawn from spec, or with noJoins those topologies with their joins
// downgraded to independent-input operators (randtopo.WithoutJoins).
type variant struct {
	label   string
	spec    randtopo.Spec
	noJoins bool
}

// meanOF runs the named registered planner over n random topologies
// of the variant and returns the mean worst-case OF per fraction.
// Topologies a planner cannot handle (e.g. a unit decomposition past
// the segment cap) are skipped (counted against n), mirroring the
// paper's exclusion of intractable cases.
func meanOF(v variant, n int, planner string) ([]Point, error) {
	pl, ok := plan.Lookup(planner)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown planner %q (registered: %v)", planner, plan.Names())
	}
	sums := make([]float64, len(fig14Fractions))
	counts := make([]int, len(fig14Fractions))
	for i := 0; i < n; i++ {
		s := v.spec
		s.Seed = v.spec.Seed + int64(i)*101
		topo, err := randtopo.Generate(s)
		if err == nil && v.noJoins {
			topo, err = randtopo.WithoutJoins(topo)
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: generating topology %d: %w", i, err)
		}
		ctx := plan.NewContext(topo)
		for fi, frac := range fig14Fractions {
			budget := int(frac * float64(topo.NumTasks()))
			p, err := pl.Plan(ctx, budget)
			if err != nil {
				continue // intractable for this planner: skip
			}
			sums[fi] += ctx.OF(p)
			counts[fi]++
		}
	}
	points := make([]Point, len(fig14Fractions))
	for fi, frac := range fig14Fractions {
		y := 0.0
		if counts[fi] > 0 {
			y = sums[fi] / float64(counts[fi])
		}
		points[fi] = Point{X: fmt.Sprintf("%.1f", frac), Y: y}
	}
	return points, nil
}

// checkTopologies rejects a Fig. 14 run over no topologies, whose
// means would all read zero.
func checkTopologies(n int) error {
	if n < 1 {
		return fmt.Errorf("experiments: need a positive topology count, got %d", n)
	}
	return nil
}

// fig14 builds one Fig. 14 subfigure: SA and Greedy on two variants
// over n random topologies.
func fig14(figure, title string, variants []variant, n int) (Result, error) {
	if err := checkTopologies(n); err != nil {
		return Result{}, err
	}
	res := Result{
		Figure: figure,
		Title:  title,
		XLabel: "resource consumption",
		YLabel: "output fidelity",
	}
	for _, alg := range []struct {
		name    string
		planner string
	}{{"SA", "sa"}, {"Greedy", "greedy"}} {
		for _, v := range variants {
			pts, err := meanOF(v, n, alg.planner)
			if err != nil {
				return Result{}, err
			}
			res.Series = append(res.Series, Series{Name: alg.name + "-" + v.label, Points: pts})
		}
	}
	return res, nil
}

// Fig14a compares uniform vs Zipfian (s=0.1) task workloads (§VI-C).
func Fig14a(n int) (Result, error) {
	zipf := randtopo.DefaultSpec(1000)
	zipf.Skew = 0.1
	uniform := randtopo.DefaultSpec(1000)
	return fig14("Fig. 14a", "SA vs Greedy: workload skewness",
		[]variant{{label: "zipf", spec: zipf}, {label: "uniform", spec: uniform}}, n)
}

// Fig14b compares parallelisation degree ranges 1-10 vs 10-20.
func Fig14b(n int) (Result, error) {
	low := randtopo.DefaultSpec(2000)
	low.MinPar, low.MaxPar = 1, 10
	high := randtopo.DefaultSpec(2000)
	high.MinPar, high.MaxPar = 10, 20
	return fig14("Fig. 14b", "SA vs Greedy: degree of parallelization",
		[]variant{{label: "para:10~20", spec: high}, {label: "para:1~10", spec: low}}, n)
}

// Fig14c compares structured vs full topologies.
func Fig14c(n int) (Result, error) {
	structured := randtopo.DefaultSpec(3000)
	full := randtopo.DefaultSpec(3000)
	full.Full = true
	return fig14("Fig. 14c", "SA vs Greedy: full partitioning",
		[]variant{{label: "Structure", spec: structured}, {label: "Full", spec: full}}, n)
}

// Fig14d compares join-operator fractions 0 vs 50%. Per the paper's
// observation ("for the same topology, OF decreases with more operators
// set as joins"), the comparison is controlled: the NoJoin lines
// evaluate the very topologies of the Join-50% lines, drawn with 50%
// joins, with their joins downgraded to independent-input operators.
func Fig14d(n int) (Result, error) {
	spec := randtopo.DefaultSpec(4000)
	spec.JoinFraction = 0.5
	return fig14("Fig. 14d", "SA vs Greedy: fraction of join operators",
		[]variant{{label: "NoJoin", spec: spec, noJoins: true}, {label: "Join-50%", spec: spec}}, n)
}
