package plan

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mctree"
	"repro/internal/topology"
)

// joinTopo builds loc(2) + inc(2) sources feeding a correlated join(2)
// feeding a sink(1) — a miniature Q2.
func joinTopo(t *testing.T) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder()
	loc := b.AddSource("loc", 2, 1000) // heavy stream
	inc := b.AddSource("inc", 2, 10)   // light stream
	join := b.AddOperator("join", 2, topology.Correlated, 0.1)
	sink := b.AddOperator("sink", 1, topology.Independent, 1)
	b.Connect(loc, join, topology.Full)
	b.Connect(inc, join, topology.Full)
	b.Connect(join, sink, topology.Merge)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestICPrefersVolumeOverCompleteness is the Fig. 12 mechanism in
// miniature: replicating only the heavy input side of a join yields a
// high IC but zero OF (no complete MC-tree).
func TestICPrefersVolumeOverCompleteness(t *testing.T) {
	topo := joinTopo(t)
	c := NewContext(topo)
	p := New(topo.NumTasks())
	p.AddAll(topo.TasksOf(0)) // both loc sources
	p.AddAll(topo.TasksOf(2)) // both join tasks
	p.AddAll(topo.TasksOf(3)) // the sink
	if of := c.OF(p); of != 0 {
		t.Errorf("OF = %v, want 0 without the incident side", of)
	}
	if ic := c.IC(p); ic <= 0.4 {
		t.Errorf("IC = %v, want substantial despite the missing join side", ic)
	}
}

// TestScopedICMatchesGlobal: a scope covering the whole topology, with
// its operators listed in any order, is the context's global scope, and
// its incremental IC (Extend on top of a base plan) equals the global IC
// of the reference propagation.
func TestScopedICMatchesGlobal(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo := randomSmallTopo(rng)
		return scopedMatchesGlobal(rng, topo, MetricIC, refIC)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// scopedMatchesGlobal reports whether the whole-topology scope, looked
// up with shuffled operators, evaluates a random base plan (EvalBase)
// and its random extension (Extend) to the reference's values.
func scopedMatchesGlobal(rng *rand.Rand, topo *topology.Topology, m Metric, ref func(*topology.Topology, []bool) float64) bool {
	c := NewContext(topo)
	ops := allOps(topo)
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	s := c.ScopeOf(ops)
	if s != c.whole {
		return false
	}
	base := New(topo.NumTasks())
	var ext []topology.TaskID
	for i := 0; i < topo.NumTasks(); i++ {
		switch rng.Intn(3) {
		case 0:
			base.Add(topology.TaskID(i))
		case 1:
			ext = append(ext, topology.TaskID(i))
		}
	}
	full := base.Clone()
	full.AddAll(ext)
	for _, pair := range [][2]float64{
		{s.EvalBase(m, base), ref(topo, failedOf(base))},
		{s.Extend(m, base, ext), ref(topo, failedOf(full))},
	} {
		if a, b := pair[0], pair[1]; a-b > 1e-9 || b-a > 1e-9 {
			return false
		}
	}
	return true
}

// TestStructureAwareICMetric: the SA planner with the IC objective
// should produce plans whose IC is at least the OF-optimised plan's IC
// on the join topology, and the OF plan must dominate on OF.
func TestStructureAwareICMetric(t *testing.T) {
	topo := joinTopo(t)
	c := NewContext(topo)
	budget := 5
	ofPlan, err := SA{}.Plan(c, budget)
	if err != nil {
		t.Fatal(err)
	}
	icPlan, err := SA{Metric: MetricIC}.Plan(c, budget)
	if err != nil {
		t.Fatal(err)
	}
	if c.OF(icPlan) > c.OF(ofPlan)+1e-9 {
		t.Errorf("IC-optimised plan OF %v beats OF-optimised plan OF %v", c.OF(icPlan), c.OF(ofPlan))
	}
	if c.IC(icPlan) < c.IC(ofPlan)-1e-9 {
		t.Errorf("IC plan IC %v below OF plan IC %v", c.IC(icPlan), c.IC(ofPlan))
	}
	if of := c.OF(ofPlan); of <= 0 {
		t.Errorf("OF plan has zero fidelity: %v", of)
	}
}

// TestObjectiveDispatch: the worst-case objectives are the
// whole-topology scope's Eval, and CorrObjective without a distribution
// is the worst-case OF.
func TestObjectiveDispatch(t *testing.T) {
	topo := joinTopo(t)
	c := NewContext(topo)
	whole := c.ScopeOf(allOps(topo))
	p := New(topo.NumTasks())
	p.AddAll(topo.TasksOf(0))
	p.AddAll(topo.TasksOf(1)[:1])
	if whole.Eval(MetricOF, p) != c.OF(p) || c.ObjectiveWith(MetricOF, p) != c.OF(p) {
		t.Error("MetricOF objective != OF")
	}
	if c.CorrObjective(p) != c.OF(p) {
		t.Error("CorrObjective without a distribution != OF")
	}
	if whole.Eval(MetricIC, p) != c.IC(p) || c.ObjectiveWith(MetricIC, p) != c.IC(p) {
		t.Error("MetricIC objective != IC")
	}
}

// TestMinTreeSize checks the minimum MC-tree sizes of representative
// shapes.
func TestMinTreeSize(t *testing.T) {
	if got := mctree.MinTreeSize(joinTopo(t)); got != 4 {
		t.Errorf("join topology min tree = %d, want 4 (one task per side: loc+inc+join+sink)", got)
	}
	if got := mctree.MinTreeSize(chainTopo(3, 3, 3)); got != 3 {
		t.Errorf("chain min tree = %d, want 3", got)
	}
	// Independent two-source diamond: a single path suffices.
	b := topology.NewBuilder()
	s1 := b.AddSource("s1", 2, 100)
	s2 := b.AddSource("s2", 2, 100)
	m := b.AddOperator("m", 1, topology.Independent, 1)
	b.Connect(s1, m, topology.Full)
	b.Connect(s2, m, topology.Full)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := mctree.MinTreeSize(topo); got != 2 {
		t.Errorf("independent diamond min tree = %d, want 2 (one source + sink)", got)
	}
}

// TestSAFeasibleBelowOpsCount: with an independent multi-source
// topology the minimum tree is smaller than the operator count and SA
// must still produce a plan (the relaxation of the paper's Alg. 5
// guard).
func TestSAFeasibleBelowOpsCount(t *testing.T) {
	b := topology.NewBuilder()
	s1 := b.AddSource("s1", 2, 100)
	s2 := b.AddSource("s2", 2, 100)
	m := b.AddOperator("m", 2, topology.Independent, 1)
	snk := b.AddOperator("snk", 1, topology.Independent, 1)
	b.Connect(s1, m, topology.Full)
	b.Connect(s2, m, topology.Full)
	b.Connect(m, snk, topology.Merge)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := NewContext(topo)
	// 4 operators but the min tree is 3 tasks (one source, one m, snk).
	p, err := SA{}.Plan(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if of := c.OF(p); of <= 0 {
		t.Errorf("SA OF = %v at budget 3, want > 0 (min tree is 3)", of)
	}
}
