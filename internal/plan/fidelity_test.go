package plan

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mctree"
	"repro/internal/topology"
)

// The §III quality models, checked through the whole-topology scope:
// a plan's worst-case OF is the OF with exactly the plan's tasks alive,
// so a failure set is evaluated as the plan of its survivors.

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// aliveExcept returns the plan that keeps every task alive but failed.
func aliveExcept(topo *topology.Topology, failed ...topology.TaskID) Plan {
	p := New(topo.NumTasks())
	for id := 0; id < topo.NumTasks(); id++ {
		p.Add(topology.TaskID(id))
	}
	for _, id := range failed {
		p.Remove(id)
	}
	return p
}

// failedOf is the failure set of an alive set.
func failedOf(p Plan) []bool {
	failed := make([]bool, len(p.replicated))
	for i, alive := range p.replicated {
		failed[i] = !alive
	}
	return failed
}

// sinkLoss is ILout of the topology's first sink task with only the
// plan's tasks alive: the whole scope's OF propagation vector.
func sinkLoss(c *Context, p Plan) float64 {
	return c.whole.baseVector(MetricOF, p)[c.Topo.SinkTasks()[0]]
}

// fig2 builds the paper's Fig. 2 example calibrated so that the worked
// IL numbers hold: O1 contributes an input stream of rate 3, O2 one of
// rate 5 with task rates 3 and 2.
func fig2(t *testing.T, kind topology.InputKind) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder()
	o1 := b.AddSource("O1", 2, 1.5) // total 3
	o2 := b.AddSource("O2", 2, 2.5) // total 5, skewed 3:2
	b.SetWeights(o2, []float64{3, 2})
	o3 := b.AddOperator("O3", 1, kind, 1)
	b.Connect(o1, o3, topology.Full)
	b.Connect(o2, o3, topology.Full)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestPaperExample reproduces the worked example of §III-A1: with task
// t22 failed, ILout of the downstream task is 2/5 for a correlated-input
// operator and 1/4 for an independent-input operator.
func TestPaperExample(t *testing.T) {
	for _, tc := range []struct {
		kind topology.InputKind
		want float64
	}{
		{topology.Correlated, 2.0 / 5.0},
		{topology.Independent, 1.0 / 4.0},
	} {
		topo := fig2(t, tc.kind)
		c := NewContext(topo)
		p := aliveExcept(topo, topo.TasksOf(1)[1]) // t22, rate 2
		if il := sinkLoss(c, p); !almostEqual(il, tc.want) {
			t.Errorf("%v: ILout(sink) = %v, want %v", tc.kind, il, tc.want)
		}
		if of := c.OF(p); !almostEqual(of, 1-tc.want) {
			t.Errorf("%v: OF = %v, want %v", tc.kind, of, 1-tc.want)
		}
	}
}

func TestNoFailurePerfectFidelity(t *testing.T) {
	topo := fig2(t, topology.Correlated)
	c := NewContext(topo)
	if of := c.OF(aliveExcept(topo)); !almostEqual(of, 1) {
		t.Errorf("OF with no failures = %v, want 1", of)
	}
	if ic := c.IC(aliveExcept(topo)); !almostEqual(ic, 1) {
		t.Errorf("IC with no failures = %v, want 1", ic)
	}
}

func TestAllFailedZeroFidelity(t *testing.T) {
	topo := fig2(t, topology.Independent)
	c := NewContext(topo)
	if of := c.OF(New(topo.NumTasks())); of != 0 {
		t.Errorf("OF with all failed = %v, want 0", of)
	}
	if ic := c.IC(New(topo.NumTasks())); ic != 0 {
		t.Errorf("IC with all failed = %v, want 0", ic)
	}
}

// TestJoinTotalLoss: losing an entire input stream of a correlated-input
// operator destroys all of its output, but only part of an
// independent-input operator's output.
func TestJoinTotalLoss(t *testing.T) {
	for _, tc := range []struct {
		kind topology.InputKind
		want float64
	}{
		{topology.Correlated, 1},
		{topology.Independent, 3.0 / 8.0}, // lost stream has rate 3 of 8
	} {
		topo := fig2(t, tc.kind)
		c := NewContext(topo)
		if il := sinkLoss(c, aliveExcept(topo, topo.TasksOf(0)...)); !almostEqual(il, tc.want) {
			t.Errorf("%v: ILout = %v, want %v", tc.kind, il, tc.want)
		}
	}
}

// TestSinkFailure: a failed sink task loses its own share of the output.
func TestSinkFailure(t *testing.T) {
	b := topology.NewBuilder()
	src := b.AddSource("src", 2, 100)
	sink := b.AddOperator("sink", 2, topology.Independent, 1)
	b.Connect(src, sink, topology.OneToOne)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := NewContext(topo)
	if of := c.OF(aliveExcept(topo, topo.TasksOf(1)[0])); !almostEqual(of, 0.5) {
		t.Errorf("OF = %v, want 0.5", of)
	}
}

// TestICIgnoresCorrelation: the defining defect of IC (per the paper's
// §VI-B): when one input stream of a join is lost, IC still credits the
// processing of the other stream while OF correctly reports total loss.
func TestICIgnoresCorrelation(t *testing.T) {
	topo := fig2(t, topology.Correlated)
	c := NewContext(topo)
	p := aliveExcept(topo, topo.TasksOf(0)...)
	if of := c.OF(p); of != 0 {
		t.Fatalf("OF = %v, want 0", of)
	}
	if ic := c.IC(p); ic <= 0.3 {
		t.Fatalf("IC = %v, want sizeable despite join loss", ic)
	}
}

// TestOFSingleFailure checks the greedy ranking vector: entry id is the
// OF with every task alive but id.
func TestOFSingleFailure(t *testing.T) {
	topo := fig2(t, topology.Independent)
	c := NewContext(topo)
	single := c.singleFailureOFs()
	for id, of := range single {
		if want := c.OF(aliveExcept(topo, topology.TaskID(id))); of != want {
			t.Errorf("single failure of task %d: OF %v, want %v", id, of, want)
		}
	}
	// Failing the heavier O2 task (rate 3) must hurt more than the
	// lighter one (rate 2).
	if heavy, light := single[topo.TasksOf(1)[0]], single[topo.TasksOf(1)[1]]; heavy >= light {
		t.Errorf("OF(fail heavy)=%v should be < OF(fail light)=%v", heavy, light)
	}
	if of := single[topo.SinkTasks()[0]]; of != 0 {
		t.Errorf("OF(fail sink) = %v, want 0", of)
	}
}

// randomAlive draws an alive set with each task surviving with
// probability 1/2.
func randomAlive(rng *rand.Rand, n int) Plan {
	p := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			p.Add(topology.TaskID(i))
		}
	}
	return p
}

// Property: OF and IC are always within [0,1] and removing a failure
// never lowers them (antitone in the failure set).
func TestMetricBoundsAndMonotonicity(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo := randomSmallTopo(rng)
		c := NewContext(topo)
		p := randomAlive(rng, topo.NumTasks())
		of, ic := c.OF(p), c.IC(p)
		if of < 0 || of > 1 || ic < 0 || ic > 1 {
			return false
		}
		// un-fail one failed task; metrics must not decrease
		for i := 0; i < topo.NumTasks(); i++ {
			if id := topology.TaskID(i); !p.Has(id) {
				p.Add(id)
				return c.OF(p) >= of-1e-12 && c.IC(p) >= ic-1e-12
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the worst-case OF is monotone in plan growth — replicating
// one more task never lowers it.
func TestOFPlanMonotone(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo := randomSmallTopo(rng)
		c := NewContext(topo)
		p := randomAlive(rng, topo.NumTasks())
		base := c.OF(p)
		for i := 0; i < topo.NumTasks(); i++ {
			if id := topology.TaskID(i); !p.Has(id) {
				q := p.Clone()
				q.Add(id)
				if c.OF(q) < base-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEmptyPlanAndFullPlan(t *testing.T) {
	topo := fig2(t, topology.Correlated)
	c := NewContext(topo)
	if of := c.OF(New(topo.NumTasks())); of != 0 {
		t.Errorf("OF(empty) = %v, want 0", of)
	}
	all := aliveExcept(topo)
	if of := c.OF(all); !almostEqual(of, 1) {
		t.Errorf("OF(all) = %v, want 1", of)
	}
	if ic := c.IC(all); !almostEqual(ic, 1) {
		t.Errorf("IC(all) = %v, want 1", ic)
	}
}

// TestDeepPropagation checks loss propagation through a 3-operator
// merge chain: failing one of two merge-input tasks halves the fidelity
// at every level below.
func TestDeepPropagation(t *testing.T) {
	b := topology.NewBuilder()
	src := b.AddSource("src", 4, 100)
	o1 := b.AddOperator("O1", 2, topology.Independent, 1)
	o2 := b.AddOperator("O2", 1, topology.Independent, 1)
	b.Connect(src, o1, topology.Merge)
	b.Connect(o1, o2, topology.Merge)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := NewContext(topo)
	if of := c.OF(aliveExcept(topo, topo.TasksOf(1)[0])); !almostEqual(of, 0.5) {
		t.Errorf("OF = %v, want 0.5", of)
	}
	// Failing one source task upstream of the other O1 task loses a
	// quarter of the input.
	if of := c.OF(aliveExcept(topo, topo.TasksOf(0)[3])); !almostEqual(of, 0.75) {
		t.Errorf("OF = %v, want 0.75", of)
	}
}

// diamondTopo builds the Fig. 1 style shape: two source operators
// feeding O3 (kind selectable), which feeds O4.
func diamondTopo(kind topology.InputKind, p1, p2, p3, p4 int) *topology.Topology {
	b := topology.NewBuilder()
	o1 := b.AddSource("O1", p1, 100)
	o2 := b.AddSource("O2", p2, 100)
	o3 := b.AddOperator("O3", p3, kind, 1)
	o4 := b.AddOperator("O4", p4, topology.Independent, 1)
	b.Connect(o1, o3, topology.Full)
	b.Connect(o2, o3, topology.Full)
	b.Connect(o3, o4, topology.Full)
	topo, err := b.Build()
	if err != nil {
		panic(err)
	}
	return topo
}

// TestTreeAliveImpliesOutput: replicating exactly the tasks of one
// MC-tree yields positive worst-case OF (the tree is complete), and
// dropping any single task of the tree yields zero OF (the tree is
// minimal). This is Definition 1 as an executable property.
func TestTreeAliveImpliesOutput(t *testing.T) {
	topos := []*topology.Topology{
		chainTopo(2, 3, 2),
		diamondTopo(topology.Correlated, 2, 2, 2, 1),
		diamondTopo(topology.Independent, 2, 2, 2, 1),
	}
	for ti, topo := range topos {
		trees, err := mctree.Enumerate(topo, 1000)
		if err != nil {
			t.Fatal(err)
		}
		c := NewContext(topo)
		for _, tr := range trees {
			p := New(topo.NumTasks())
			p.AddAll(tr.Tasks)
			if of := c.OF(p); of <= 0 {
				t.Errorf("topo %d: complete tree %v has OF %v, want > 0", ti, tr.Tasks, of)
			}
			for _, id := range tr.Tasks {
				q := p.Clone()
				q.Remove(id)
				if of := c.OF(q); of != 0 {
					t.Errorf("topo %d: tree %v without task %d has OF %v, want 0", ti, tr.Tasks, id, of)
				}
			}
		}
	}
}

// referenceTopos returns random topologies for the reference
// comparison: §VI-C random topologies (every third with joins) and
// small random topologies covering every partitioning.
func referenceTopos(t *testing.T) []*topology.Topology {
	var topos []*topology.Topology
	for i, topo := range specTopos(t, 24) {
		topos = append(topos, topo, randomSmallTopo(rand.New(rand.NewSource(int64(i+1)))))
	}
	return topos
}

// TestWholeScopeMatchesReference: the whole-topology scope is the §III
// model. Against the reference propagation, over random topologies, its
// OF matches exactly and its IC within 1e-12 — for random plans (memoized
// and unmemoized), for every single-task failure, and for the expected
// OF of random scenario distributions.
func TestWholeScopeMatchesReference(t *testing.T) {
	for ti, topo := range referenceTopos(t) {
		rng := rand.New(rand.NewSource(int64(ti)))
		n := topo.NumTasks()
		c := NewContext(topo)
		for trial := 0; trial < 20; trial++ {
			p := randomAlive(rng, n)
			want := refOF(topo, failedOf(p))
			if of := c.OF(p); of != want {
				t.Fatalf("topo %d plan %v: OF %v, reference %v", ti, p.Tasks(), of, want)
			}
			if of := c.whole.eval(MetricOF, p.replicated); of != want {
				t.Fatalf("topo %d plan %v: unmemoized OF %v, reference %v", ti, p.Tasks(), of, want)
			}
			if ic, want := c.IC(p), refIC(topo, failedOf(p)); math.Abs(ic-want) > 1e-12 {
				t.Fatalf("topo %d plan %v: IC %v, reference %v", ti, p.Tasks(), ic, want)
			}
		}
		for id, of := range c.singleFailureOFs() {
			if want := refOF(topo, failedOf(aliveExcept(topo, topology.TaskID(id)))); of != want {
				t.Fatalf("topo %d: single failure of task %d: OF %v, reference %v", ti, id, of, want)
			}
		}
		sets := make([][]topology.TaskID, 1+rng.Intn(12))
		for i := range sets {
			sets[i] = randomAlive(rng, n).Tasks()
		}
		s, err := NewScenarioSet(n, sets)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetScenarios(s); err != nil {
			t.Fatal(err)
		}
		p := randomAlive(rng, n)
		var want float64
		for i, failed := range s.failed {
			f := make([]bool, n)
			for id := range f {
				f[id] = failed[id] && !p.Has(topology.TaskID(id))
			}
			want += s.weights[i] * refOF(topo, f)
		}
		if got := c.CorrObjective(p); got != want {
			t.Fatalf("topo %d: CorrObjective %v, reference %v", ti, got, want)
		}
	}
}
