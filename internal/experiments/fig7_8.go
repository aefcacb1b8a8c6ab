package experiments

import (
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/queries"
	"repro/internal/sim"
)

// technique is one fault-tolerance configuration compared in Figs. 7-8.
type technique struct {
	name     string
	strategy engine.Strategy
	ckpt     sim.Time // checkpoint interval (checkpoint technique)
	trim     sim.Time // replica trim interval (active technique)
}

// figTechniques are the six bars of Figs. 7 and 8.
var figTechniques = []technique{
	{name: "Active-5s", strategy: engine.StrategyActive, trim: 5},
	{name: "Active-30s", strategy: engine.StrategyActive, trim: 30},
	{name: "Checkpoint-5s", strategy: engine.StrategyCheckpoint, ckpt: 5},
	{name: "Checkpoint-15s", strategy: engine.StrategyCheckpoint, ckpt: 15},
	{name: "Checkpoint-30s", strategy: engine.StrategyCheckpoint, ckpt: 30},
	{name: "Storm", strategy: engine.StrategySourceReplay},
}

// recoveryConfig is one x-axis group of Figs. 7-8.
type recoveryConfig struct {
	windowBatches int
	rate          int
}

func (c recoveryConfig) label() string {
	return fmt.Sprintf("win:%ds rate:%dtps", c.windowBatches, c.rate)
}

var figConfigs = []recoveryConfig{
	{10, 1000}, {10, 2000}, {30, 1000}, {30, 2000},
}

// failureMode selects single-node vs correlated failure injection.
type failureMode int

const (
	singleNode failureMode = iota
	correlated
)

const (
	failAt     = sim.Time(45.2)
	runHorizon = sim.Time(300)
)

// runRecovery executes one (technique, config, failure) cell and returns
// the recovery latencies of the failed tasks in task order, so a figure
// that folds them into a floating-point sum folds them in one order.
func runRecovery(tech technique, cfg recoveryConfig, mode failureMode, failNodeIdx int) ([]float64, error) {
	f, err := queries.NewFig6(queries.Fig6Params{
		RatePerTask:   cfg.rate,
		WindowBatches: cfg.windowBatches,
	})
	if err != nil {
		return nil, err
	}
	econf := engine.Config{
		WindowBatches:       cfg.windowBatches,
		CheckpointInterval:  tech.ckpt,
		ReplicaTrimInterval: tech.trim,
	}
	strategies := engine.Strategies(f.Topo.NumTasks(), tech.strategy, nil)
	if tech.strategy == engine.StrategyActive {
		// PPA: the passive layer covers every task; active replication
		// protects the synthetic tasks under test.
		strategies = engine.Strategies(f.Topo.NumTasks(), engine.StrategyCheckpoint, f.SyntheticTasks)
		if econf.CheckpointInterval == 0 {
			econf.CheckpointInterval = 15
		}
	}
	e, err := engine.New(f.Setup(econf, strategies))
	if err != nil {
		return nil, err
	}
	switch mode {
	case singleNode:
		e.ScheduleNodeFailures(f.SyntheticNodes[failNodeIdx:failNodeIdx+1], failAt)
	case correlated:
		e.ScheduleNodeFailures(f.SyntheticNodes, failAt)
	}
	e.Run(runHorizon)
	var out []float64
	for _, st := range e.RecoveryStats() {
		if !st.Recovered {
			return nil, fmt.Errorf("experiments: task %d (%s) not recovered by %v", st.Task, tech.name, runHorizon)
		}
		out = append(out, float64(st.Latency()))
	}
	return out, nil
}

// Fig7 reproduces "Recovery latency of single node failure": each
// technique's latency averaged over failures of one node per operator
// level (O1[0], O2[0], O3[0], O4), for the four window/rate
// configurations.
func Fig7() (Result, error) {
	res := Result{
		Figure: "Fig. 7",
		Title:  "Recovery latency of single node failure",
		XLabel: "configuration",
		YLabel: "latency seconds",
	}
	// One representative node per operator level: the synthetic nodes
	// list is ordered O1 x8, O2 x4, O3 x2, O4 x1.
	levels := []int{0, 8, 12, 14}
	for _, tech := range figTechniques {
		s := Series{Name: tech.name}
		for _, cfg := range figConfigs {
			var ls []float64
			for _, idx := range levels {
				stats, err := runRecovery(tech, cfg, singleNode, idx)
				if err != nil {
					return Result{}, err
				}
				ls = append(ls, stats...)
			}
			s.Points = append(s.Points, Point{X: cfg.label(), Y: mean(ls)})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Fig8 reproduces "Recovery latency of correlated failure": all 15
// synthetic nodes fail simultaneously; latency is the completion of the
// whole recovery (maximum over the failed tasks).
func Fig8() (Result, error) {
	res := Result{
		Figure: "Fig. 8",
		Title:  "Recovery latency of correlated failure",
		XLabel: "configuration",
		YLabel: "latency seconds",
	}
	for _, tech := range figTechniques {
		s := Series{Name: tech.name}
		for _, cfg := range figConfigs {
			stats, err := runRecovery(tech, cfg, correlated, 0)
			if err != nil {
				return Result{}, err
			}
			s.Points = append(s.Points, Point{X: cfg.label(), Y: slices.Max(stats)})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}
