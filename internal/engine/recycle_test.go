package engine_test

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/queries"
	"repro/internal/sim"
	"repro/internal/topology"
)

// report is everything an engine reports after a scenario: where
// RunSpliced stopped, the sink volume and records, the accuracy and
// recovery stats, every task's progress and CPU accounting.
type report struct {
	Stop     sim.Time
	Sink     int
	Records  []engine.SinkRecord
	Acc      engine.AccuracyStats
	Rec      []engine.RecoveryStat
	Progress []int
	CPU      []engine.CPUStat
}

func reportOf(e *engine.Engine, stop sim.Time) report {
	r := report{
		Stop:    stop,
		Sink:    e.SinkTupleCount(),
		Records: slices.Clone(e.SinkRecords()),
		Acc:     e.AccuracyStats(),
		Rec:     e.RecoveryStats(),
		CPU:     e.CPUStats(),
	}
	for id := range e.Topology().Tasks {
		r.Progress = append(r.Progress, e.TaskProgress(topology.TaskID(id)))
	}
	return r
}

// rig is a scenario sequence on an engine setup. Its engines are marked
// where a campaign marks them, just before the sequence's earliest
// wave, and its scenarios run the way a campaign worker runs one:
// ScheduleNodeFailures per wave, then RunSpliced on the failure-free
// trajectory to the horizon.
type rig struct {
	name    string
	setup   func() (engine.Setup, error)
	scs     []campaign.Scenario
	horizon sim.Time
}

// marked builds an engine and runs it to the mark.
func (r *rig) marked(t testing.TB) *engine.Engine {
	t.Helper()
	mark := r.horizon
	for _, sc := range r.scs {
		for _, w := range sc.Waves {
			mark = min(mark, w.At)
		}
	}
	s, err := r.setup()
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(s)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(sim.Time(math.Nextafter(float64(mark), math.Inf(-1))))
	if err := e.Mark(); err != nil {
		t.Fatal(err)
	}
	if err := engine.CheckImage(e); err != nil {
		t.Fatalf("%s: after Mark: %v", r.name, err)
	}
	return e
}

// recording returns a marked engine, reset after recording the
// trajectory.
func (r *rig) recording(t testing.TB) (*engine.Engine, *engine.Trajectory) {
	t.Helper()
	e := r.marked(t)
	tr, err := e.RecordTrajectory(r.horizon)
	if err != nil {
		t.Fatal(err)
	}
	e.Reset()
	return e, tr
}

// run runs one scenario on an engine reset or freshly marked, and
// returns where RunSpliced stopped.
func run(e *engine.Engine, tr *engine.Trajectory, sc campaign.Scenario) sim.Time {
	for _, w := range sc.Waves {
		e.ScheduleNodeFailures(w.Nodes, w.At)
	}
	return e.RunSpliced(tr)
}

// check runs the sequence on one engine and requires every scenario to
// report exactly what it reports on a freshly built and marked engine,
// every runtime to restart to a new one after every scenario, and the
// engine to hold exactly its image after every Mark and Reset.
func (r *rig) check(t *testing.T) {
	t.Helper()
	e, tr := r.recording(t)
	if err := engine.CheckImage(e); err != nil {
		t.Fatalf("%s: after recording the trajectory: %v", r.name, err)
	}
	restarted := 0
	for i, sc := range r.scs {
		got := reportOf(e, run(e, tr, sc))
		fresh := r.marked(t)
		want := reportOf(fresh, run(fresh, tr, sc))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: scenario %d (%s): the recycling engine reports\n%+v\na fresh engine\n%+v", r.name, i, sc.Label, got, want)
		}
		n, err := engine.CheckRestart(e)
		if err != nil {
			t.Fatalf("%s: after scenario %d (%s): %v", r.name, i, sc.Label, err)
		}
		restarted = max(restarted, n)
		e.Reset()
		if err := engine.CheckImage(e); err != nil {
			t.Fatalf("%s: reset after scenario %d (%s): %v", r.name, i, sc.Label, err)
		}
	}
	if restarted == 0 {
		t.Fatalf("%s: no scenario restarted a runtime; test misconfigured", r.name)
	}
}

// allocs runs the sequence on one engine once to warm up and once
// measured, resetting after every scenario, and returns the objects and
// bytes the measured pass allocated per scenario.
func (r *rig) allocs(t testing.TB) (objects, bytes float64) {
	e, tr := r.recording(t)
	pass := func() {
		for _, sc := range r.scs {
			run(e, tr, sc)
			e.Reset()
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	n := float64(len(r.scs))
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// presetRig is the environment of a campaign preset (seed 1) with the
// scenarios of specs, in order.
func presetRig(t testing.TB, preset, planner string, tentative bool, specs ...campaign.GenSpec) *rig {
	t.Helper()
	topo, err := campaign.PresetTopology(preset, 1)
	if err != nil {
		t.Fatal(err)
	}
	env, err := campaign.NewEnv(campaign.EnvSpec{Topo: topo, Planner: planner, Tentative: tentative})
	if err != nil {
		t.Fatal(err)
	}
	c, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{name: fmt.Sprintf("%s/%q/tentative=%v", preset, planner, tentative), setup: env.Setup, horizon: 90}
	for _, spec := range specs {
		scs, err := campaign.Generate(c, spec)
		if err != nil {
			t.Fatal(err)
		}
		r.scs = append(r.scs, scs...)
	}
	return r
}

// everyModel is presetRig with five scenarios of every burst model,
// ordered by how many nodes they fail, most first, so the windows and
// buffers the biggest recoveries grow carry into the smaller ones.
func everyModel(t *testing.T, preset, planner string, tentative bool) *rig {
	t.Helper()
	var specs []campaign.GenSpec
	for _, model := range campaign.Models {
		specs = append(specs, campaign.GenSpec{Seed: 1, Scenarios: 5, Model: model, Correlation: campaign.DefaultCorrelation})
	}
	r := presetRig(t, preset, planner, tentative, specs...)
	size := func(sc campaign.Scenario) int {
		n := 0
		for _, w := range sc.Waves {
			n += len(w.Nodes)
		}
		return n
	}
	slices.SortStableFunc(r.scs, func(a, b campaign.Scenario) int { return cmp.Compare(size(b), size(a)) })
	return r
}

// q1Rig is a small Q1 top-k query: materialised tuples, operators that
// restore their state from gob, tentative outputs, and amendments that
// reprocess late input on the top-k task, whose output depends on all
// the state it holds.
func q1Rig(t *testing.T) *rig {
	t.Helper()
	q, err := queries.NewQ1(queries.Q1Params{Seed: 7, Servers: 4, MergeTasks: 2, K: 20, WindowBatches: 10, RatePerTask: 200})
	if err != nil {
		t.Fatal(err)
	}
	setup := func() (engine.Setup, error) {
		c := cluster.New(q.Topo.NumTasks(), 2)
		if err := c.PlaceRoundRobin(q.Topo); err != nil {
			return engine.Setup{}, err
		}
		return engine.Setup{
			Topology:  q.Topo,
			Cluster:   c,
			Config:    engine.Config{CheckpointInterval: 5, TentativeOutputs: true},
			Sources:   q.Sources(),
			Operators: q.Operators(),
		}, nil
	}
	s, err := setup()
	if err != nil {
		t.Fatal(err)
	}
	nodes := func(op int, idx ...int) []cluster.NodeID {
		var out []cluster.NodeID
		for _, i := range idx {
			out = append(out, s.Cluster.NodeOf(q.Topo.TasksOf(op)[i]))
		}
		return out
	}
	wave := func(at sim.Time, ns ...[]cluster.NodeID) campaign.Wave {
		w := campaign.Wave{At: at}
		for _, n := range ns {
			w.Nodes = append(w.Nodes, n...)
		}
		return w
	}
	// Operators: 0 the sources, 1 the slice counts, 2 the merges, 3 the
	// top-k sink.
	scs := []campaign.Scenario{
		{Label: "slices and a merge, then a source and a merge", Waves: []campaign.Wave{
			wave(10.2, nodes(1, 0, 1, 2, 3), nodes(2, 0)), wave(12.2, nodes(0, 0), nodes(2, 1))}},
		{Label: "slices", Waves: []campaign.Wave{wave(13.4, nodes(1, 0, 3))}},
		{Label: "a merge, then the top-k", Waves: []campaign.Wave{wave(10.7, nodes(2, 1)), wave(11.7, nodes(3, 0))}},
		{Label: "a slice", Waves: []campaign.Wave{wave(11.3, nodes(1, 2))}},
		{Label: "a source", Waves: []campaign.Wave{wave(10.9, nodes(0, 1))}},
	}
	return &rig{name: "Q1", setup: setup, scs: scs, horizon: 40}
}

// TestRecycledEngineMatchesFresh pins that recycling is invisible: a
// scenario run on an engine that earlier scenarios ran on, reusing
// their runtimes, operators, events and checkpoint objects, reports
// exactly what it reports on a freshly built and marked engine — where
// RunSpliced stops, the sink volume and records, AccuracyStats,
// RecoveryStats, every task's progress and CPUStats. Each engine runs
// its scenarios largest first, so grown windows and buffers carry into
// small scenarios. The grid is the small, medium and large presets ×
// checkpoint-only and greedy plans × tentative outputs off and on, five
// scenarios of each burst model per cell; then the medium preset under
// source-replay recovery, and a Q1 query engine. After every scenario
// each runtime must restart to exactly what newTaskRuntime builds,
// epoch aside (CheckRestart), so a field that a restart forgets fails
// here; right after every Mark and Reset the engine must equal its
// image field by field and share no storage with it (CheckImage), so a
// field that the image copy or Reset forgets fails here too. -short,
// and the race detector, run the small preset only.
func TestRecycledEngineMatchesFresh(t *testing.T) {
	presets := []string{campaign.TopoSmall, campaign.TopoMedium, campaign.TopoLarge}
	if testing.Short() || raceEnabled {
		presets = presets[:1]
	}
	for _, preset := range presets {
		for _, planner := range []string{"", "greedy"} {
			for _, tentative := range []bool{false, true} {
				everyModel(t, preset, planner, tentative).check(t)
			}
		}
	}
	r := everyModel(t, presets[len(presets)/2], "", true)
	r.name += "/source-replay"
	setup := r.setup
	r.setup = func() (engine.Setup, error) {
		s, err := setup()
		s.Strategies = engine.Strategies(s.Topology.NumTasks(), engine.StrategySourceReplay, nil)
		return s, err
	}
	r.check(t)
	q1Rig(t).check(t)
}
