package plan

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/randtopo"
	"repro/internal/topology"
)

// chainTopo builds src -> mid -> sink, all Full, with the given
// parallelisms.
func chainTopo(par ...int) *topology.Topology {
	b := topology.NewBuilder()
	prev := b.AddSource("O0", par[0], 100)
	for i := 1; i < len(par); i++ {
		op := b.AddOperator("O", par[i], topology.Independent, 1)
		b.Connect(prev, op, topology.Full)
		prev = op
	}
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

func TestPlanBasics(t *testing.T) {
	p := New(5)
	if p.Size() != 0 {
		t.Fatalf("empty plan size = %d", p.Size())
	}
	p.Add(2)
	p.Add(2) // duplicate
	p.Add(4)
	if p.Size() != 2 {
		t.Fatalf("size = %d, want 2", p.Size())
	}
	if !p.Has(2) || p.Has(3) {
		t.Error("Has misbehaves")
	}
	got := p.Tasks()
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("Tasks = %v", got)
	}
	q := p.Clone()
	q.Add(0)
	if p.Has(0) {
		t.Error("Clone is not independent")
	}
	if p.Key() == q.Key() {
		t.Error("different plans share a key")
	}
}

func TestGreedyBudgetAndDeterminism(t *testing.T) {
	topo := chainTopo(2, 2, 2)
	c := NewContext(topo)
	for budget := 0; budget <= 6; budget++ {
		p, _ := Greedy{}.Plan(c, budget)
		if p.Size() != budget {
			t.Errorf("Greedy(%d) size = %d", budget, p.Size())
		}
		p2, _ := Greedy{}.Plan(c, budget)
		if p.Key() != p2.Key() {
			t.Errorf("Greedy(%d) not deterministic", budget)
		}
	}
	if p, _ := (Greedy{}).Plan(c, 100); p.Size() != 6 {
		t.Errorf("Greedy(overbudget) size = %d, want 6", p.Size())
	}
}

// TestGreedyTreeBlindness demonstrates the paper's central criticism of
// the greedy algorithm (§IV-B): at small replication ratios it picks
// individually important tasks that do not form a complete MC-tree,
// yielding zero worst-case OF where the structure-aware planner finds a
// working plan.
func TestGreedyTreeBlindness(t *testing.T) {
	topo := chainTopo(2, 2, 2)
	c := NewContext(topo)
	budget := 3 // exactly one task per operator is affordable
	g, _ := Greedy{}.Plan(c, budget)
	sa, err := SA{}.Plan(c, budget)
	if err != nil {
		t.Fatal(err)
	}
	gOF := c.OF(g)
	saOF := c.OF(sa)
	if gOF != 0 {
		t.Errorf("greedy OF = %v, want 0 (picks the sink pair, no complete chain)", gOF)
	}
	if saOF <= 0 {
		t.Errorf("structure-aware OF = %v, want > 0", saOF)
	}
}

func TestDPOptimalOnChain(t *testing.T) {
	topo := chainTopo(2, 2, 2)
	c := NewContext(topo)
	for budget := 0; budget <= 6; budget++ {
		dp, err := DP{}.Plan(c, budget)
		if err != nil {
			t.Fatal(err)
		}
		bf, err := Brute{}.Plan(c, budget)
		if err != nil {
			t.Fatal(err)
		}
		if dpOF, bfOF := c.OF(dp), c.OF(bf); dpOF != bfOF {
			t.Errorf("budget %d: DP OF = %v, brute force OF = %v", budget, dpOF, bfOF)
		}
		if dp.Size() > budget {
			t.Errorf("budget %d: DP used %d tasks", budget, dp.Size())
		}
	}
}

// randomSmallTopo builds a random topology small enough for brute force.
func randomSmallTopo(rng *rand.Rand) *topology.Topology {
	b := topology.NewBuilder()
	nOps := 2 + rng.Intn(2)
	parts := []topology.Partitioning{topology.Full, topology.Merge, topology.OneToOne, topology.Split}
	par := 1 + rng.Intn(3)
	prev := b.AddSource("src", par, 100*(1+rng.Float64()))
	total := par
	for i := 1; i < nOps; i++ {
		kind := topology.Independent
		if rng.Intn(3) == 0 {
			kind = topology.Correlated
		}
		part := parts[rng.Intn(len(parts))]
		var np int
		switch part {
		case topology.OneToOne:
			np = par
		case topology.Merge:
			np = 1 + rng.Intn(par)
		case topology.Split:
			np = par + rng.Intn(3)
		default:
			np = 1 + rng.Intn(3)
		}
		if total+np > 10 {
			break
		}
		op := b.AddOperator("op", np, kind, 0.5+rng.Float64())
		b.Connect(prev, op, part)
		prev = op
		par = np
		total += np
	}
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

// Property: the dynamic programming planner matches the brute-force
// optimum (Theorem 1), and dominates both SA and greedy.
func TestDPMatchesBruteForce(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo := randomSmallTopo(rng)
		c := NewContext(topo)
		budget := rng.Intn(topo.NumTasks() + 1)
		dp, err := DP{}.Plan(c, budget)
		if err != nil {
			return false
		}
		bf, err := Brute{}.Plan(c, budget)
		if err != nil {
			return false
		}
		dpOF, bfOF := c.OF(dp), c.OF(bf)
		if dpOF < bfOF-1e-12 || dpOF > bfOF+1e-12 {
			t.Logf("seed %d: DP OF %v != brute %v (budget %d)", seed, dpOF, bfOF, budget)
			return false
		}
		sa, err := SA{}.Plan(c, budget)
		if err != nil {
			return false
		}
		if c.OF(sa) > dpOF+1e-12 {
			t.Logf("seed %d: SA OF %v beats optimal %v", seed, c.OF(sa), dpOF)
			return false
		}
		g, _ := Greedy{}.Plan(c, budget)
		if c.OF(g) > dpOF+1e-12 {
			t.Logf("seed %d: greedy OF %v beats optimal %v", seed, c.OF(g), dpOF)
			return false
		}
		return dp.Size() <= budget && sa.Size() <= budget && g.Size() <= budget
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestFullTopologyPlanner(t *testing.T) {
	topo := chainTopo(3, 3, 3)
	c := NewContext(topo)
	ops := allOps(topo)

	// Budget below one task per operator: no complete MC-tree, empty.
	p, _ := Full{Ops: ops}.Plan(c, 2)
	if p.Size() != 0 {
		t.Errorf("FullTopology(budget 2) size = %d, want 0", p.Size())
	}

	// Budget of exactly the operator count: one task per operator.
	p, _ = Full{Ops: ops}.Plan(c, 3)
	if p.Size() != 3 {
		t.Fatalf("FullTopology(budget 3) size = %d, want 3", p.Size())
	}
	if of := c.OF(p); of <= 0 {
		t.Errorf("OF = %v, want > 0", of)
	}

	// Full budget: everything replicated, perfect fidelity.
	p, _ = Full{Ops: ops}.Plan(c, 9)
	if p.Size() != 9 {
		t.Errorf("FullTopology(budget 9) size = %d, want 9", p.Size())
	}
	if of := c.OF(p); of < 0.999 {
		t.Errorf("OF = %v, want ~1", of)
	}
}

func TestFullTopologyPrefersHeavyTasks(t *testing.T) {
	b := topology.NewBuilder()
	src := b.AddSource("src", 2, 100)
	down := b.AddOperator("down", 2, topology.Independent, 1)
	b.SetWeights(src, []float64{5, 1})
	b.SetWeights(down, []float64{5, 1})
	b.Connect(src, down, topology.Full)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := NewContext(topo)
	p, _ := Full{}.Plan(c, 2)
	// must pick the heavy task of each operator
	if !p.Has(topo.TasksOf(0)[0]) || !p.Has(topo.TasksOf(1)[0]) {
		t.Errorf("plan %v should pick the heavy tasks", p.Tasks())
	}
}

func TestStructuredTopologyPlanner(t *testing.T) {
	// 4-2-1 merge pyramid: MC-trees are root-to-leaf chains.
	b := topology.NewBuilder()
	src := b.AddSource("src", 4, 100)
	mid := b.AddOperator("mid", 2, topology.Independent, 1)
	sink := b.AddOperator("sink", 1, topology.Independent, 1)
	b.Connect(src, mid, topology.Merge)
	b.Connect(mid, sink, topology.Merge)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := NewContext(topo)
	p, err := Structured{}.Plan(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 3 {
		t.Fatalf("size = %d, want 3 (one complete chain)", p.Size())
	}
	if of := c.OF(p); of <= 0 {
		t.Errorf("OF = %v, want > 0 for a complete chain", of)
	}
	// With the full budget the plan must reach fidelity 1.
	p, err = Structured{}.Plan(c, 7)
	if err != nil {
		t.Fatal(err)
	}
	if of := c.OF(p); of < 0.999 {
		t.Errorf("full-budget OF = %v, want ~1", of)
	}
}

func TestStructureAwareSmallBudget(t *testing.T) {
	topo := chainTopo(2, 2, 2)
	c := NewContext(topo)
	p, err := SA{}.Plan(c, 2) // < NumOps
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 0 {
		t.Errorf("StructureAware below operator count should return empty plan, got %v", p.Tasks())
	}
}

// TestSAKeepsZeroOFPlan pins a known defect of SA. On BenchmarkPlanners'
// small topology (randtopo.DefaultSpec(4242) with 4 operators of
// parallelism 1–3) at budget 3, SA replicates tasks 0, 5 and 6, which
// complete no MC-tree (OF 0), while dp and structured replicate 0, 2
// and 3 (OF 0.1016). O1 (tasks 0–1) merges into O2 (task 2), which
// splits to O3 (tasks 3–4) and O4 (tasks 5–7), so the structured
// sub-topologies are {O1, O2, O3} and {O4}. SA seeds the deeper {O4}
// first with [5]. The {O1, O2, O3} step, allowed 2 tasks, stops its
// search because the next segment ({2, 3}) would exceed that, yet
// still proposes the bare seed [0], which raises no scoped OF. Every
// later whole-topology gain is 0, so the tie-break on the
// sub-topology's own OF adds [6]. (The paper's Alg. 5 bound, a budget
// below the operator count, would return the empty plan here.) Fixing
// this changes SA's plans, and this test, on purpose.
func TestSAKeepsZeroOFPlan(t *testing.T) {
	spec := randtopo.DefaultSpec(4242)
	spec.MinOps, spec.MaxOps, spec.MinPar, spec.MaxPar = 4, 4, 1, 3
	topo, err := randtopo.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := NewContext(topo)
	for _, tc := range []struct {
		planner string
		tasks   []topology.TaskID
		of      float64
	}{
		{"sa", []topology.TaskID{0, 5, 6}, 0},
		{"dp", []topology.TaskID{0, 2, 3}, 0.10163806516816665},
		{"structured", []topology.TaskID{0, 2, 3}, 0.10163806516816665},
	} {
		pl, _ := Lookup(tc.planner)
		p, err := pl.Plan(c, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Tasks(); !reflect.DeepEqual(got, tc.tasks) || c.OF(p) != tc.of {
			t.Errorf("%s plans %v with OF %v, want %v with OF %v", tc.planner, got, c.OF(p), tc.tasks, tc.of)
		}
	}
	up, err := newStructuredState(c, []int{0, 1, 2}, MetricOF)
	if err != nil {
		t.Fatal(err)
	}
	seeded := New(topo.NumTasks())
	seeded.Add(5)
	if got := up.step(c, seeded, 2); !reflect.DeepEqual(got, []topology.TaskID{0}) {
		t.Errorf("{O1, O2, O3} step after the seed [5] at max cost 2 = %v, want the bare seed [0]", got)
	}
}

// Property: SA OF is monotone non-decreasing in budget and within
// budget.
func TestSAMonotoneInBudget(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo := randomSmallTopo(rng)
		c := NewContext(topo)
		prev := -1.0
		for budget := 0; budget <= topo.NumTasks(); budget++ {
			p, err := SA{}.Plan(c, budget)
			if err != nil {
				return false
			}
			if p.Size() > budget {
				return false
			}
			of := c.OF(p)
			if of < prev-1e-12 {
				t.Logf("seed %d: OF fell from %v to %v at budget %d", seed, prev, of, budget)
				return false
			}
			prev = of
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestScopedOFWholeTopologyMatchesOF: the whole-topology scope's OF,
// evaluated in full and incrementally, equals the reference OF.
func TestScopedOFWholeTopologyMatchesOF(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo := randomSmallTopo(rng)
		return scopedMatchesGlobal(rng, topo, MetricOF, refOF)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStructureAwareGeneralTopology(t *testing.T) {
	// Structured upper part + full lower part (Fig. 4 shape).
	b := topology.NewBuilder()
	src := b.AddSource("O1", 4, 100)
	o2 := b.AddOperator("O2", 2, topology.Independent, 1)
	o3 := b.AddOperator("O3", 2, topology.Independent, 1)
	o4 := b.AddOperator("O4", 2, topology.Independent, 1)
	b.Connect(src, o2, topology.Merge)
	b.Connect(o2, o3, topology.Full)
	b.Connect(o3, o4, topology.Full)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := NewContext(topo)
	p, err := SA{}.Plan(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if of := c.OF(p); of <= 0 {
		t.Errorf("SA OF = %v, want > 0 with budget 4 on 4 operators", of)
	}
	// Full budget reaches fidelity 1.
	p, err = SA{}.Plan(c, topo.NumTasks())
	if err != nil {
		t.Fatal(err)
	}
	if of := c.OF(p); of < 0.999 {
		t.Errorf("full-budget SA OF = %v, want ~1", of)
	}
}

func TestBruteForceTooLarge(t *testing.T) {
	topo := chainTopo(9, 9, 9)
	c := NewContext(topo)
	if _, err := (Brute{}).Plan(c, 3); err == nil {
		t.Fatal("BruteForce accepted a 27-task topology")
	}
}

func TestContextICConsistency(t *testing.T) {
	topo := chainTopo(2, 2)
	c := NewContext(topo)
	full := New(topo.NumTasks())
	for i := 0; i < topo.NumTasks(); i++ {
		full.Add(topology.TaskID(i))
	}
	if ic := c.IC(full); ic < 0.999 {
		t.Errorf("IC(full plan) = %v, want ~1", ic)
	}
	if ic := c.IC(New(topo.NumTasks())); ic != 0 {
		t.Errorf("IC(empty plan) = %v, want 0", ic)
	}
}
