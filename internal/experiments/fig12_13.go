package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/queries"
	"repro/internal/topology"
)

// accuracyFractions is the x-axis of Figs. 12-13 (resource consumption
// as a fraction of the task count).
var accuracyFractions = []float64{0.2, 0.4, 0.6, 0.8}

// queryBundle abstracts Q1/Q2 for the accuracy experiments.
type queryBundle struct {
	name      string
	topo      *topology.Topology
	sources   map[int]engine.SourceFactory
	operators map[int]engine.OperatorFactory
	// accuracy compares a tentative run's sink records with the
	// failure-free baseline's.
	accuracy func(test, base []engine.SinkRecord) float64
}

// newQ1Bundle builds the Q1 accuracy bundle (top-k overlap at the last
// common batch).
func newQ1Bundle(seed int64) (queryBundle, error) {
	q, err := queries.NewQ1(queries.Q1Params{Seed: seed, K: 100, WindowBatches: 20})
	if err != nil {
		return queryBundle{}, err
	}
	return queryBundle{
		name:      "Q1",
		topo:      q.Topo,
		sources:   q.Sources(),
		operators: q.Operators(),
		accuracy: func(test, base []engine.SinkRecord) float64 {
			baseKeys, bb := queries.LastBatchKeys(base, -1)
			testKeys, _ := queries.LastBatchKeys(test, bb)
			return queries.SetAccuracy(testKeys, baseKeys)
		},
	}, nil
}

// newQ2Bundle builds the Q2 accuracy bundle (incident-set overlap).
// Parallelism is configurable so Fig. 13 can use a smaller variant that
// keeps the optimal DP planner tractable.
func newQ2Bundle(seed int64, locTasks, joinTasks int) (queryBundle, error) {
	q, err := queries.NewQ2(queries.Q2Params{
		Seed:      seed,
		LocTasks:  locTasks,
		IncTasks:  2,
		JoinTasks: joinTasks,
		Users:     20000,
		Segments:  200,
		LocRate:   4000,
	})
	if err != nil {
		return queryBundle{}, err
	}
	return queryBundle{
		name:      "Q2",
		topo:      q.Topo,
		sources:   q.Sources(),
		operators: q.Operators(),
		accuracy: func(test, base []engine.SinkRecord) float64 {
			return queries.SetAccuracy(queries.AllKeys(test), queries.AllKeys(base))
		},
	}, nil
}

// accuracyHorizon is the virtual runtime of each accuracy measurement.
const accuracyHorizon = 60

// runBundle executes the bundle with the given failed tasks permanently
// down (tentative outputs enabled) and returns the sink records.
func (qb queryBundle) run(failed []topology.TaskID) ([]engine.SinkRecord, error) {
	clus := cluster.New(qb.topo.NumTasks(), 4)
	if err := clus.PlaceRoundRobin(qb.topo); err != nil {
		return nil, err
	}
	strategies := make([]engine.Strategy, qb.topo.NumTasks())
	for _, id := range failed {
		strategies[id] = engine.StrategyNone
	}
	e, err := engine.New(engine.Setup{
		Topology: qb.topo,
		Cluster:  clus,
		Config: engine.Config{
			TentativeOutputs:  true,
			HeartbeatInterval: 1,
			ProcRate:          1e7, // accuracy, not latency, is measured
		},
		Sources:    qb.sources,
		Operators:  qb.operators,
		Strategies: strategies,
	})
	if err != nil {
		return nil, err
	}
	if len(failed) > 0 {
		// Fail before the first batch: the whole run is tentative, so
		// the measured quality is the steady-state tentative quality of
		// the plan (the paper's worst-case correlated failure).
		e.ScheduleTaskFailures(failed, 0.1)
	}
	e.Run(accuracyHorizon)
	return e.SinkRecords(), nil
}

// planAccuracy measures the actual tentative accuracy of a plan: run
// with every non-replicated task failed and compare against the
// baseline.
func (qb queryBundle) planAccuracy(p plan.Plan, base []engine.SinkRecord) (float64, error) {
	var failed []topology.TaskID
	for id := 0; id < qb.topo.NumTasks(); id++ {
		if !p.Has(topology.TaskID(id)) {
			failed = append(failed, topology.TaskID(id))
		}
	}
	recs, err := qb.run(failed)
	if err != nil {
		return 0, err
	}
	return qb.accuracy(recs, base), nil
}

// Fig12 reproduces "Comparing the values of OF/IC and the query
// accuracy" for one query: plans optimised for OF (structure-aware) and
// for IC, their predicted metric values and their actual tentative
// accuracies.
func Fig12(qb queryBundle) (Result, error) {
	res := Result{
		Figure: "Fig. 12 (" + qb.name + ")",
		Title:  "OF/IC metric values vs actual tentative-output accuracy: " + qb.name,
		XLabel: "resource consumption",
		YLabel: "OF / IC / accuracy",
	}
	base, err := qb.run(nil)
	if err != nil {
		return Result{}, err
	}
	ctx := plan.NewContext(qb.topo)
	var ofS, ofAccS, icS, icAccS Series
	ofS.Name, ofAccS.Name, icS.Name, icAccS.Name = "OF", "OF-SA-Accuracy", "IC", "IC-SA-Accuracy"
	for _, frac := range accuracyFractions {
		x := fmt.Sprintf("%.1f", frac)
		budget, err := plan.Budget(qb.topo.NumTasks(), frac)
		if err != nil {
			return Result{}, err
		}

		ofPlan, err := plan.MustLookup("sa").Plan(ctx, budget)
		if err != nil {
			return Result{}, err
		}
		ofAcc, err := qb.planAccuracy(ofPlan, base)
		if err != nil {
			return Result{}, err
		}
		ofS.Points = append(ofS.Points, Point{X: x, Y: ctx.OF(ofPlan)})
		ofAccS.Points = append(ofAccS.Points, Point{X: x, Y: ofAcc})

		icPlan, err := plan.MustLookup("sa-ic").Plan(ctx, budget)
		if err != nil {
			return Result{}, err
		}
		icAcc, err := qb.planAccuracy(icPlan, base)
		if err != nil {
			return Result{}, err
		}
		icS.Points = append(icS.Points, Point{X: x, Y: ctx.IC(icPlan)})
		icAccS.Points = append(icAccS.Points, Point{X: x, Y: icAcc})
	}
	res.Series = []Series{ofS, ofAccS, icS, icAccS}
	return res, nil
}

// Fig12Q1 and Fig12Q2 are the two subfigures of Fig. 12.
func Fig12Q1() (Result, error) {
	qb, err := newQ1Bundle(42)
	if err != nil {
		return Result{}, err
	}
	return Fig12(qb)
}

func Fig12Q2() (Result, error) {
	qb, err := newQ2Bundle(42, 12, 4)
	if err != nil {
		return Result{}, err
	}
	return Fig12(qb)
}

// fig13Planners are the planners Fig. 13 compares, by registry name,
// with the paper's labels that name their series.
var fig13Planners = []struct{ label, name string }{
	{"DP", "dp"}, {"SA", "sa"}, {"Greedy", "greedy"},
}

// Fig13 reproduces "Comparing various algorithms": OF and actual
// accuracy of the plans generated by DP, SA and Greedy.
func Fig13(qb queryBundle) (Result, error) {
	res := Result{
		Figure: "Fig. 13 (" + qb.name + ")",
		Title:  "DP vs SA vs Greedy: OF and actual accuracy: " + qb.name,
		XLabel: "resource consumption",
		YLabel: "OF / accuracy",
	}
	base, err := qb.run(nil)
	if err != nil {
		return Result{}, err
	}
	ctx := plan.NewContext(qb.topo)
	ofSeries := make([]Series, len(fig13Planners))
	accSeries := make([]Series, len(fig13Planners))
	for i, pl := range fig13Planners {
		ofSeries[i].Name = pl.label + "-OF"
		accSeries[i].Name = pl.label + "-Accuracy"
	}
	for _, frac := range accuracyFractions {
		x := fmt.Sprintf("%.1f", frac)
		budget, err := plan.Budget(qb.topo.NumTasks(), frac)
		if err != nil {
			return Result{}, err
		}
		for i, pl := range fig13Planners {
			p, err := plan.MustLookup(pl.name).Plan(ctx, budget)
			if err != nil {
				return Result{}, err
			}
			acc, err := qb.planAccuracy(p, base)
			if err != nil {
				return Result{}, err
			}
			ofSeries[i].Points = append(ofSeries[i].Points, Point{X: x, Y: ctx.OF(p)})
			accSeries[i].Points = append(accSeries[i].Points, Point{X: x, Y: acc})
		}
	}
	res.Series = append(ofSeries, accSeries...)
	return res, nil
}

// Fig13Q1 and Fig13Q2 are the two subfigures of Fig. 13. Q2 uses a
// smaller parallelisation than Fig. 12 so that the exponential DP
// planner stays tractable (the paper likewise could not complete DP on
// larger topologies, §VI-C).
func Fig13Q1() (Result, error) {
	qb, err := newQ1Bundle(7)
	if err != nil {
		return Result{}, err
	}
	return Fig13(qb)
}

func Fig13Q2() (Result, error) {
	qb, err := newQ2Bundle(7, 4, 2)
	if err != nil {
		return Result{}, err
	}
	return Fig13(qb)
}
