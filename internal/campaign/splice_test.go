package campaign

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// outcome is everything an engine run reports that a campaign reads or
// a caller can ask for: the sink volume, the accuracy and recovery
// stats, and every task's progress.
type outcome struct {
	Sink     int
	Acc      engine.AccuracyStats
	Rec      []engine.RecoveryStat
	Progress []int
}

func observe(e *engine.Engine) outcome {
	o := outcome{Sink: e.SinkTupleCount(), Acc: e.AccuracyStats(), Rec: e.RecoveryStats()}
	for id := range e.Topology().Tasks {
		o.Progress = append(o.Progress, e.TaskProgress(topology.TaskID(id)))
	}
	return o
}

// spliceRig is one engine of an environment marked where a campaign
// over scs marks it, with the failure-free trajectory to the horizon
// that campaign records.
type spliceRig struct {
	e       *engine.Engine
	tr      *engine.Trajectory
	horizon sim.Time
}

func newSpliceRig(t *testing.T, env *Env, scs []Scenario, horizon sim.Time) *spliceRig {
	t.Helper()
	s, err := env.Setup()
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(s)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(markTime(scs, horizon))
	if err := e.Mark(); err != nil {
		t.Fatal(err)
	}
	tr, err := e.RecordTrajectory(horizon)
	if err != nil {
		t.Fatal(err)
	}
	return &spliceRig{e: e, tr: tr, horizon: horizon}
}

// run runs one scenario from the mark to the horizon, through
// RunSpliced or plainly through Run, and returns what it reports and
// where it stopped.
func (r *spliceRig) run(sc Scenario, spliced bool) (outcome, sim.Time) {
	r.e.Reset()
	for _, w := range sc.Waves {
		r.e.ScheduleNodeFailures(w.Nodes, w.At)
	}
	stop := r.horizon
	if spliced {
		stop = r.e.RunSpliced(r.tr)
	} else {
		r.e.Run(stop)
	}
	return observe(r.e), stop
}

// presetEnv builds the environment of a topology preset (seed 1) under
// a planner ("" for checkpoint-only recovery).
func presetEnv(t *testing.T, preset, planner string, tentative bool) *Env {
	t.Helper()
	topo, err := PresetTopology(preset, 1)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(EnvSpec{Topo: topo, Planner: planner, Tentative: tentative})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func scenariosOf(t *testing.T, env *Env, spec GenSpec) []Scenario {
	t.Helper()
	sample, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	scs, err := Generate(sample, spec)
	if err != nil {
		t.Fatal(err)
	}
	return scs
}

// TestTrajectoryVolumeMatchesBaseline: the failure-free volume a local
// campaign measures loss against — its trajectory's, taken from an
// engine marked before the earliest wave — equals BaselineVolume's
// from-zero run, which a coordinator ships to its workers instead. The
// grid is the small, medium and large presets × checkpoint-only and
// greedy plans × tentative outputs off and on. -short, and the race
// detector, run the small preset only.
func TestTrajectoryVolumeMatchesBaseline(t *testing.T) {
	const horizon = 90
	presets := []string{TopoSmall, TopoMedium, TopoLarge}
	if testing.Short() || raceEnabled {
		presets = presets[:1]
	}
	for _, preset := range presets {
		for _, planner := range []string{"", "greedy"} {
			for _, tentative := range []bool{false, true} {
				env := presetEnv(t, preset, planner, tentative)
				scs := scenariosOf(t, env, GenSpec{Seed: 1, Scenarios: 8, Model: Cascade, Correlation: DefaultCorrelation})
				cfg := Config{Setup: env.Setup, Scenarios: scs, Horizon: horizon, Workers: 1}
				want, err := BaselineVolume(cfg)
				if err != nil {
					t.Fatal(err)
				}
				_, pool, got, err := prepare(cfg, Range{0, len(scs)})
				if err != nil {
					t.Fatal(err)
				}
				if got != want || pool.traj.SinkTupleCount() != want || want == 0 {
					t.Errorf("%s/%q/tentative=%v: baseline %d, trajectory volume %d; BaselineVolume %d",
						preset, planner, tentative, got, pool.traj.SinkTupleCount(), want)
				}
			}
		}
	}
}

// TestSpliceMatchesFullRun runs every scenario of a grid twice, through
// Run to the horizon and through RunSpliced, and requires identical
// reports: the sink volume, AccuracyStats, RecoveryStats and every
// task's progress. The grid is the small, medium and large presets ×
// the four burst models × greedy and checkpoint-only plans × tentative
// outputs on and off, 30 scenarios per cell at seed 1, and the medium
// cells again at seed 2. So that it cannot pass by never splicing, at
// least 90% of each cell's scenarios must stop before the horizon.
// -short, and the race detector, run the small preset only.
func TestSpliceMatchesFullRun(t *testing.T) {
	const horizon, perCell, minShare = 90, 30, 0.9
	presets := []string{TopoSmall, TopoMedium, TopoLarge}
	if testing.Short() || raceEnabled {
		presets = presets[:1]
	}
	for _, preset := range presets {
		seeds := []int64{1}
		if preset == TopoMedium {
			seeds = append(seeds, 2)
		}
		for _, planner := range []string{"greedy", ""} {
			for _, tentative := range []bool{true, false} {
				env := presetEnv(t, preset, planner, tentative)
				for _, seed := range seeds {
					for _, model := range Models {
						name := fmt.Sprintf("%s/%q/tentative=%v/seed=%d/%s", preset, planner, tentative, seed, model)
						t.Run(name, func(t *testing.T) {
							t.Parallel()
							scs := scenariosOf(t, env, GenSpec{Seed: seed, Scenarios: perCell, Model: model, Correlation: DefaultCorrelation})
							rig := newSpliceRig(t, env, scs, horizon)
							spliced := 0
							for _, sc := range scs {
								want, _ := rig.run(sc, false)
								got, stop := rig.run(sc, true)
								if !reflect.DeepEqual(got, want) {
									t.Fatalf("scenario %d (%s) stopped at %v: spliced run reports\n%+v\nfull run\n%+v", sc.Index, sc.Label, stop, got, want)
								}
								if stop < horizon {
									spliced++
								}
							}
							if share := float64(spliced) / perCell; share < minShare {
								t.Errorf("%d of %d scenarios spliced (%.0f%%), want at least %.0f%%", spliced, perCell, 100*share, 100*minShare)
							}
						})
					}
				}
			}
		}
	}
}

// TestSpliceKeepsCascadeLoss pins that the splice cannot hide output
// loss: a scenario that loses output never re-converges to the
// failure-free run, so it runs to the horizon and keeps the loss of a
// full run. The cell is the open checkpoint-only cascade loss (ROADMAP
// "Exact recovery loses output"): the medium preset without
// replication or tentative outputs, 200 cascades at seed 1. Exactly
// scenarios 57, 64, 66, 92, 154, 191 and 197 lose output there; fixing
// that loss changes this list on purpose.
func TestSpliceKeepsCascadeLoss(t *testing.T) {
	const horizon = 90
	env := presetEnv(t, TopoMedium, "", false)
	scs := scenariosOf(t, env, GenSpec{Seed: 1, Scenarios: 200, Model: Cascade, Correlation: DefaultCorrelation})
	rig := newSpliceRig(t, env, scs, horizon)
	base := rig.tr.SinkTupleCount()
	var lossy []int
	for _, sc := range scs {
		want, _ := rig.run(sc, false)
		got, stop := rig.run(sc, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scenario %d: spliced run reports %+v, full run %+v", sc.Index, got, want)
		}
		if want.Sink == base {
			continue
		}
		lossy = append(lossy, sc.Index)
		if stop != horizon {
			t.Errorf("scenario %d loses %d of %d tuples but stopped at %v, before the horizon", sc.Index, base-want.Sink, base, stop)
		}
	}
	if want := []int{57, 64, 66, 92, 154, 191, 197}; !reflect.DeepEqual(lossy, want) {
		t.Errorf("lossy scenarios %v, want %v", lossy, want)
	}
}

// TestInertWaveSplicesAtOnce checks the metamorphic relation that a
// wave on nodes hosting no task and no replica equals no failure, and
// that the splice sees it at once: under checkpoint-only recovery a
// standby node hosts nothing, so failing one at 31.3 s must stop the
// run at the first check, the batch boundary at 32 s, and report
// exactly what a failure-free run does. Every standby node of every
// preset is tried.
func TestInertWaveSplicesAtOnce(t *testing.T) {
	const horizon, at, firstCheck = 90, 31.3, 32
	for _, preset := range []string{TopoSmall, TopoMedium, TopoLarge} {
		t.Run(preset, func(t *testing.T) {
			env := presetEnv(t, preset, "", false)
			c, err := env.Cluster()
			if err != nil {
				t.Fatal(err)
			}
			var scs []Scenario
			for _, n := range c.StandbyNodes() {
				scs = append(scs, Scenario{Waves: []Wave{{At: at, Nodes: []cluster.NodeID{n.ID}}}})
			}
			if len(scs) == 0 {
				t.Fatal("no standby nodes")
			}
			rig := newSpliceRig(t, env, scs, horizon)
			want, _ := rig.run(Scenario{}, false)
			for _, sc := range scs {
				got, stop := rig.run(sc, true)
				if stop != firstCheck {
					t.Errorf("standby node %d: stopped at %v, want the first check at %v", sc.Waves[0].Nodes[0], stop, sim.Time(firstCheck))
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("standby node %d: reports %+v, failure-free run %+v", sc.Waves[0].Nodes[0], got, want)
				}
			}
		})
	}
}
