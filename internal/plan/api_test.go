package plan

import (
	"math"
	"testing"

	"repro/internal/topology"
)

// pipelineTopo builds src(2) -OneToOne-> mid(2) -Merge-> sink(1), a
// 5-task pipeline.
func pipelineTopo(t *testing.T) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder()
	src := b.AddSource("src", 2, 100)
	mid := b.AddOperator("mid", 2, topology.Independent, 1)
	snk := b.AddOperator("sink", 1, topology.Independent, 1)
	b.Connect(src, mid, topology.OneToOne)
	b.Connect(mid, snk, topology.Merge)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// planByName plans with the registered planner of the given name.
func planByName(t *testing.T, c *Context, name string, budget int) Plan {
	t.Helper()
	p, err := MustLookup(name).Plan(c, budget)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

func TestPlanAlgorithms(t *testing.T) {
	c := NewContext(pipelineTopo(t))
	for _, name := range []string{"sa", "dp", "greedy", "sa-ic"} {
		p := planByName(t, c, name, 3)
		if p.Size() > 3 {
			t.Errorf("%s used %d tasks over budget 3", name, p.Size())
		}
		if of, ic := c.OF(p), c.IC(p); of < 0 || of > 1 || ic < 0 || ic > 1 {
			t.Errorf("%s: OF=%v IC=%v out of range", name, of, ic)
		}
	}
	if _, ok := Lookup("sa-99"); ok {
		t.Error("unknown planner found")
	}
}

func TestDPDominates(t *testing.T) {
	c := NewContext(pipelineTopo(t))
	for budget := 0; budget <= 5; budget++ {
		dp := c.OF(planByName(t, c, "dp", budget))
		sa := c.OF(planByName(t, c, "sa", budget))
		g := c.OF(planByName(t, c, "greedy", budget))
		if sa > dp+1e-12 || g > dp+1e-12 {
			t.Errorf("budget %d: DP OF %v beaten by SA %v or Greedy %v", budget, dp, sa, g)
		}
	}
}

func TestSAICOptimisesIC(t *testing.T) {
	c := NewContext(pipelineTopo(t))
	icPlan := planByName(t, c, "sa-ic", 3)
	if ic := c.IC(icPlan); ic <= 0 {
		t.Errorf("SA-IC plan has IC %v, want > 0 at budget 3", ic)
	}
	// At a moderate budget the IC-optimised plan's IC should be at
	// least the OF-optimised plan's IC.
	ofPlan := planByName(t, c, "sa", 3)
	if c.IC(icPlan) < c.IC(ofPlan)-1e-9 {
		t.Errorf("SA-IC plan IC %v below SA plan IC %v", c.IC(icPlan), c.IC(ofPlan))
	}
}

// TestBudgetForFraction checks the fraction → budget rule: rounding to
// the nearest task, and an error for every ratio outside [0, 1].
func TestBudgetForFraction(t *testing.T) {
	const n = 5
	for frac, want := range map[float64]int{0: 0, 0.5: 3, 1: 5} {
		if got, err := Budget(n, frac); err != nil || got != want {
			t.Errorf("Budget(%d, %v) = %d, %v, want %d", n, frac, got, err, want)
		}
	}
	for _, frac := range []float64{-1, 2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, err := Budget(n, frac); err == nil {
			t.Errorf("Budget(%d, %v) = %d, want an error", n, frac, got)
		}
	}
}

func TestDiff(t *testing.T) {
	c := NewContext(pipelineTopo(t))
	old := planByName(t, c, "sa", 3)
	next := planByName(t, c, "sa", 5)
	activate, deactivate := Diff(old, next)
	for _, id := range activate {
		if old.Has(id) || !next.Has(id) {
			t.Errorf("activate %d wrong", id)
		}
	}
	for _, id := range deactivate {
		if !old.Has(id) || next.Has(id) {
			t.Errorf("deactivate %d wrong", id)
		}
	}
	// Self-diff is empty.
	a, d := Diff(old, old)
	if len(a) != 0 || len(d) != 0 {
		t.Errorf("self diff = %v / %v", a, d)
	}
}

func TestPlanByName(t *testing.T) {
	c := NewContext(pipelineTopo(t))
	for _, name := range Names() {
		pl := MustLookup(name)
		p, err := pl.Plan(c, 3)
		if err != nil {
			if name == "full" {
				continue // pipelineTopo is not a full topology; a clean error is correct
			}
			t.Fatalf("%s: %v", name, err)
		}
		if pl.Name() != name {
			t.Errorf("%s: planner name = %q", name, pl.Name())
		}
		if p.Size() > 3 {
			t.Errorf("%s: plan size %d exceeds budget", name, p.Size())
		}
	}
	if _, ok := Lookup("no-such-planner"); ok {
		t.Error("Lookup accepted an unknown planner")
	}
}
