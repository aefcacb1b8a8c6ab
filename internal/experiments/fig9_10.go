package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Fig9 reproduces "Resource usage of maintaining checkpoints": the ratio
// of checkpointing CPU to normal processing CPU per task, for checkpoint
// intervals 1/5/15/30 s and rates 1000/2000 tps, window 30 s.
func Fig9() (Result, error) {
	res := Result{
		Figure: "Fig. 9",
		Title:  "CPU usage of maintaining checkpoints (window 30s)",
		XLabel: "checkpoint interval",
		YLabel: "ckpt CPU / processing CPU",
	}
	for _, rate := range []int{1000, 2000} {
		s := Series{Name: fmt.Sprintf("%d_tuples/s", rate)}
		for _, interval := range []sim.Time{1, 5, 15, 30} {
			f, err := queries.NewFig6(queries.Fig6Params{RatePerTask: rate, WindowBatches: 30})
			if err != nil {
				return Result{}, err
			}
			e, err := engine.New(f.Setup(engine.Config{
				WindowBatches:      30,
				CheckpointInterval: interval,
			}, nil))
			if err != nil {
				return Result{}, err
			}
			e.Run(120)
			synth := map[topology.TaskID]bool{}
			for _, id := range f.SyntheticTasks {
				synth[id] = true
			}
			var proc, ck float64
			for _, st := range e.CPUStats() {
				if synth[st.Task] {
					proc += float64(st.ProcCPU)
					ck += float64(st.CkptCPU)
				}
			}
			if proc == 0 {
				return Result{}, fmt.Errorf("experiments: no processing CPU recorded")
			}
			s.Points = append(s.Points, Point{X: fmt.Sprintf("%vs", float64(interval)), Y: ck / proc})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// ppaPlans are the replication plans compared in Fig. 10: the fraction
// of the 15 synthetic tasks protected by active replicas.
var ppaPlans = []struct {
	name string
	frac float64
}{
	{"PPA-1.0", 1.0},
	{"PPA-0.5-active", 0.5}, // same runs as PPA-0.5, reporting only active tasks
	{"PPA-0.5", 0.5},
	{"PPA-0", 0},
}

// Fig10 reproduces "Recovery latency of a correlated failure with PPA"
// for one source rate: recovery latency under PPA-1.0 / PPA-0.5 /
// PPA-0, with PPA-0.5-active reporting the completion of just the
// actively replicated half. Window 30 s; checkpoint interval sweeps
// 5/15/30 s (the paper's subfigures (a) and (b) are rate 1000 and 2000).
func Fig10(rate int) (Result, error) {
	res := Result{
		Figure: fmt.Sprintf("Fig. 10 (rate %d tps)", rate),
		Title:  "Recovery latency of correlated failure with PPA plans (window 30s)",
		XLabel: "checkpoint interval",
		YLabel: "latency seconds",
	}
	type cell struct{ all, active float64 }
	// one run per (interval, fraction); PPA-0.5-active shares the
	// PPA-0.5 runs.
	runs := map[string]cell{}
	for _, interval := range []sim.Time{5, 15, 30} {
		for _, frac := range []float64{0, 0.5, 1.0} {
			f, err := queries.NewFig6(queries.Fig6Params{RatePerTask: rate, WindowBatches: 30})
			if err != nil {
				return Result{}, err
			}
			// Every other synthetic task gets an active replica until
			// the fraction is reached.
			var active []topology.TaskID
			want := int(frac*float64(len(f.SyntheticTasks)) + 0.5)
			for i := 0; i < len(f.SyntheticTasks) && len(active) < want; i += 1 {
				if frac == 1.0 || i%2 == 0 {
					active = append(active, f.SyntheticTasks[i])
				}
			}
			for i := 1; i < len(f.SyntheticTasks) && len(active) < want; i += 2 {
				active = append(active, f.SyntheticTasks[i])
			}
			activeSet := map[topology.TaskID]bool{}
			for _, id := range active {
				activeSet[id] = true
			}
			e, err := engine.New(f.Setup(engine.Config{
				WindowBatches:      30,
				CheckpointInterval: interval,
			}, engine.Strategies(f.Topo.NumTasks(), engine.StrategyCheckpoint, active)))
			if err != nil {
				return Result{}, err
			}
			for _, n := range f.SyntheticNodes {
				e.ScheduleNodeFailure(n, failAt)
			}
			e.Run(runHorizon)
			var worstAll, worstActive float64
			for _, st := range e.RecoveryStats() {
				if !st.Recovered {
					return Result{}, fmt.Errorf("experiments: fig10 task %d not recovered (frac %v, interval %v)", st.Task, frac, interval)
				}
				l := float64(st.Latency())
				if l > worstAll {
					worstAll = l
				}
				if activeSet[st.Task] && l > worstActive {
					worstActive = l
				}
			}
			runs[fmt.Sprintf("%v|%v", interval, frac)] = cell{all: worstAll, active: worstActive}
		}
	}
	for _, p := range ppaPlans {
		s := Series{Name: p.name}
		for _, interval := range []sim.Time{5, 15, 30} {
			c := runs[fmt.Sprintf("%v|%v", interval, p.frac)]
			y := c.all
			if p.name == "PPA-0.5-active" {
				y = c.active
			}
			s.Points = append(s.Points, Point{X: fmt.Sprintf("%vs", float64(interval)), Y: y})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}
