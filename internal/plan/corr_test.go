package plan

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/randtopo"
	"repro/internal/topology"
)

// corrChainTopo builds src(1) -> A(2) -> B(1): tasks 0=src, 1/2=A, 3=B.
func corrChainTopo(t *testing.T) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder()
	src := b.AddSource("src", 1, 1000)
	a := b.AddOperator("A", 2, topology.Independent, 0.5)
	bb := b.AddOperator("B", 1, topology.Independent, 0.5)
	b.Connect(src, a, topology.Split)
	b.Connect(a, bb, topology.Merge)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestScenarioSetDedup(t *testing.T) {
	s, err := NewScenarioSet(4, [][]topology.TaskID{{1}, {1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 distinct scenarios", s.Len())
	}
	var sum float64
	for _, w := range s.weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum to %v, want 1", sum)
	}
	if math.Abs(s.weights[0]-2.0/3) > 1e-12 {
		t.Fatalf("duplicated scenario weight %v, want 2/3", s.weights[0])
	}
	if _, err := NewScenarioSet(4, nil); err == nil {
		t.Error("empty scenario list accepted")
	}
	if _, err := NewScenarioSet(2, [][]topology.TaskID{{5}}); err == nil {
		t.Error("out-of-range task accepted")
	}
	if _, err := NewScenarioSet(0, [][]topology.TaskID{{}}); err == nil {
		t.Error("zero task count accepted")
	}
}

func TestCorrObjectiveDefaultsToWorstCase(t *testing.T) {
	topo := corrChainTopo(t)
	c := NewContext(topo)
	p := New(topo.NumTasks())
	p.AddAll([]topology.TaskID{0, 1, 3})
	if got, want := c.CorrObjective(p), c.OF(p); got != want {
		t.Fatalf("without a distribution CorrObjective = %v, want OF %v", got, want)
	}
	// Installing a mismatched distribution is rejected.
	s, err := NewScenarioSet(2, [][]topology.TaskID{{0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetScenarios(s); err == nil {
		t.Error("scenario set with wrong task count accepted")
	}
}

// TestCorrObjectiveMemoParity: CorrObjective is never memoized, so a
// context with memoization on and one with it off agree, a repeated
// call returns the same value, and a new distribution changes the
// value.
func TestCorrObjectiveMemoParity(t *testing.T) {
	topo := corrChainTopo(t)
	n := topo.NumTasks()
	s, err := NewScenarioSet(n, [][]topology.TaskID{{1}, {1}, {2}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	memo := NewContext(topo)
	if err := memo.SetScenarios(s); err != nil {
		t.Fatal(err)
	}
	raw := NewContext(topo)
	raw.SetMemoize(false)
	if err := raw.SetScenarios(s); err != nil {
		t.Fatal(err)
	}
	plans := [][]topology.TaskID{{}, {1}, {2}, {0, 1, 3}, {0, 1, 2, 3}}
	for _, tasks := range plans {
		p := New(n)
		p.AddAll(tasks)
		a := memo.CorrObjective(p)
		b := memo.CorrObjective(p)
		c := raw.CorrObjective(p)
		if a != b || a != c {
			t.Fatalf("plan %v: memoizing context %v / repeat %v / unmemoized context %v differ", tasks, a, b, c)
		}
	}
	// A new distribution changes the value.
	full := New(n)
	full.AddAll([]topology.TaskID{0, 1, 2, 3})
	before := memo.CorrObjective(New(n))
	s2, err := NewScenarioSet(n, [][]topology.TaskID{{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := memo.SetScenarios(s2); err != nil {
		t.Fatal(err)
	}
	if got := memo.CorrObjective(New(n)); got == before {
		t.Fatalf("value %v unchanged by SetScenarios", got)
	}
}

// TestCorrPlannersRegistered: the *-corr variants are selectable from
// the registry.
func TestCorrPlannersRegistered(t *testing.T) {
	names := Names()
	reg := map[string]bool{}
	for _, n := range names {
		reg[n] = true
	}
	for _, want := range []string{"dp-corr", "structured-corr", "sa-corr"} {
		if !reg[want] {
			t.Errorf("planner %q not registered (have %v)", want, names)
		}
	}
}

// TestCorrPlannerRefines: under a distribution that only ever fails A's
// first task with higher probability, the correlation-aware planner
// must replicate exactly that task with budget 1 — a strict improvement
// over the greedy seed, which replicates the task whose single failure
// hurts the worst case most.
func TestCorrPlannerRefines(t *testing.T) {
	topo := corrChainTopo(t)
	n := topo.NumTasks()
	c := NewContext(topo)
	s, err := NewScenarioSet(n, [][]topology.TaskID{{1}, {1}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetScenarios(s); err != nil {
		t.Fatal(err)
	}
	inner, err := Greedy{}.Plan(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	corr, err := Corr{Inner: Greedy{}}.Plan(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !corr.Has(1) || corr.Size() != 1 {
		t.Fatalf("corr plan %v, want exactly task 1 (the dominant burst)", corr.Tasks())
	}
	if got, seed := c.CorrObjective(corr), c.CorrObjective(inner); got <= seed {
		t.Fatalf("corr objective %v not above the seed's %v", got, seed)
	}
}

// TestCorrPlannerDeterministicAcrossWorkers: the hill climb merges move
// evaluations in enumeration order, so the plan is identical at any
// worker count (and with memoization off).
func TestCorrPlannerDeterministicAcrossWorkers(t *testing.T) {
	topo := corrChainTopo(t)
	n := topo.NumTasks()
	sets := [][]topology.TaskID{{1}, {2}, {1, 2}, {3}, {0, 3}}
	run := func(workers int, memo bool) Plan {
		c := NewContext(topo)
		c.SetMemoize(memo)
		s, err := NewScenarioSet(n, sets)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetScenarios(s); err != nil {
			t.Fatal(err)
		}
		p, err := Corr{Inner: Greedy{}}.plan(c, 2, workers)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := run(1, true)
	for _, alt := range []Plan{run(0, true), run(4, true), run(1, false)} {
		if !reflect.DeepEqual(base.Tasks(), alt.Tasks()) {
			t.Fatalf("plans differ across workers/memo: %v vs %v", base.Tasks(), alt.Tasks())
		}
	}
}

// specTopos returns the §VI-C random topologies of randtopo.DefaultSpec
// seeds 1–count, every third with joins.
func specTopos(t *testing.T, count int64) []*topology.Topology {
	t.Helper()
	var topos []*topology.Topology
	for seed := int64(1); seed <= count; seed++ {
		spec := randtopo.DefaultSpec(seed)
		if seed%3 == 0 {
			spec.JoinFraction = 0.5
		}
		topo, err := randtopo.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, topo)
	}
	return topos
}

// randomScenarioSet draws a failure distribution over n tasks: the
// empty failure set, up to 12 random bursts that never fail one chosen
// task (and, at low density, miss others too), and a repeat of one of
// them, so the weights are unequal.
func randomScenarioSet(t *testing.T, rng *rand.Rand, n int) *ScenarioSet {
	t.Helper()
	spared := topology.TaskID(rng.Intn(n))
	density := []float64{0.05, 0.2, 0.5}[rng.Intn(3)]
	sets := [][]topology.TaskID{{}}
	for k := 1 + rng.Intn(12); k > 0; k-- {
		var set []topology.TaskID
		for id := topology.TaskID(0); int(id) < n; id++ {
			if id != spared && rng.Float64() < density {
				set = append(set, id)
			}
		}
		sets = append(sets, set)
	}
	sets = append(sets, sets[rng.Intn(len(sets))])
	s, err := NewScenarioSet(n, sets)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCorrMoveScoresMatchObjective: the delta-scored climb values the
// current plan and every move exactly as CorrObjective values the moved
// plan (==), for the empty plan (pure adds) and random plans with one
// task of slack (adds and swaps).
func TestCorrMoveScoresMatchObjective(t *testing.T) {
	for ti, topo := range specTopos(t, 40) {
		rng := rand.New(rand.NewSource(int64(ti)))
		n := topo.NumTasks()
		s := randomScenarioSet(t, rng, n)
		c := NewContext(topo)
		if err := c.SetScenarios(s); err != nil {
			t.Fatal(err)
		}
		cl := newCorrClimb(c.whole, s, 4)
		for trial, cur := range []Plan{New(n), randomAlive(rng, n), randomAlive(rng, n)} {
			moves := corrMoves(cur, cur.Size()+1)
			got, vals := cl.score(cur, moves)
			if want := c.CorrObjective(cur); got != want {
				t.Fatalf("topo %d plan %d: base value %v, CorrObjective %v", ti, trial, got, want)
			}
			for k, m := range moves {
				probe := cur.Clone()
				if m.del != noTask {
					probe.Remove(m.del)
				}
				probe.Add(m.add)
				if want := c.CorrObjective(probe); vals[k] != want {
					t.Fatalf("topo %d plan %d: move +%d -%d scored %v, CorrObjective %v", ti, trial, m.add, m.del, vals[k], want)
				}
			}
		}
	}
}

// TestCorrPlanMatchesReference: Corr returns the reference climb's plan
// (refCorrPlan, which scores every move with CorrObjective) for every
// inner planner, at fractions 0.1, 0.3 and 0.6 and at 1, 2 and 8
// workers; across the grid the climb must move some seed plan. The
// reference is slow under the race detector, which then checks every
// eighth topology.
func TestCorrPlanMatchesReference(t *testing.T) {
	// Each topology has its own context, so the topologies run as
	// parallel subtests.
	var moved, runs atomic.Int64
	t.Run("topologies", func(t *testing.T) {
		for ti, topo := range specTopos(t, 40) {
			if raceEnabled && ti%8 != 0 {
				continue
			}
			t.Run(fmt.Sprint(ti), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(int64(ti)))
				n := topo.NumTasks()
				c := NewContext(topo)
				if err := c.SetScenarios(randomScenarioSet(t, rng, n)); err != nil {
					t.Fatal(err)
				}
				for _, inner := range []Planner{SA{}, Greedy{}, Structured{}} {
					for _, frac := range []float64{0.1, 0.3, 0.6} {
						budget, err := Budget(n, frac)
						if err != nil {
							t.Fatal(err)
						}
						want, err := refCorrPlan(inner, c, budget)
						if err != nil {
							t.Fatal(err)
						}
						runs.Add(1)
						if seed, err := inner.Plan(c, budget); err != nil {
							t.Fatal(err)
						} else if seed.Key() != want.Key() {
							moved.Add(1)
						}
						for _, workers := range []int{1, 2, 8} {
							got, err := Corr{Inner: inner}.plan(c, budget, workers)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got.Tasks(), want.Tasks()) {
								t.Fatalf("topo %d %s-corr fraction %v workers %d: plan %v, reference %v",
									ti, inner.Name(), frac, workers, got.Tasks(), want.Tasks())
							}
						}
					}
				}
			})
		}
	})
	if moved.Load() == 0 {
		t.Fatal("the climb never moved a seed plan; the comparison is vacuous")
	}
	t.Logf("the climb moved %d of %d seed plans", moved.Load(), runs.Load())
}
