package plan

import (
	"math"
	"reflect"
	"testing"

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

// TestCorrObjectiveMemoParity pins the memoized evaluation: values with
// the cache enabled equal the uncached computation, and the cache is
// invalidated when the distribution changes.
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
		b := memo.CorrObjective(p) // memo hit
		c := raw.CorrObjective(p)
		if a != b || a != c {
			t.Fatalf("plan %v: memoized %v / hit %v / unmemoized %v differ", tasks, a, b, c)
		}
	}
	// A new distribution must not serve stale values.
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
		t.Fatalf("stale memo value %v survived SetScenarios", got)
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
		p, err := Corr{Inner: Greedy{}, Workers: workers}.Plan(c, 2)
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
