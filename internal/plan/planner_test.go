package plan

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mctree"
	"repro/internal/topology"
)

// TestRegistryLookup checks that every built-in planner is registered
// and resolvable by name, and that the registry is consistent.
func TestRegistryLookup(t *testing.T) {
	want := []string{"brute", "dp", "dp-corr", "full", "greedy", "sa", "sa-corr", "sa-ic", "structured", "structured-corr"}
	for _, name := range want {
		p, ok := Lookup(name)
		if !ok {
			t.Fatalf("planner %q not registered", name)
		}
		if p.Name() != name {
			t.Errorf("planner registered as %q reports Name() = %q", name, p.Name())
		}
	}
	names := Names()
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
			}
		}
		if !found {
			t.Errorf("Names() = %v missing %q", names, w)
		}
	}
	if _, ok := Lookup("no-such-planner"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
	if MustLookup("sa").Name() != "sa" {
		t.Error("MustLookup(sa) returned wrong planner")
	}
}

// TestEveryPlannerThroughInterface invokes all registered planners
// uniformly on one topology; every plan must respect the budget, and a
// second run on the warm context (its memos and base vectors filled by
// every planner before) must return the same plan.
func TestEveryPlannerThroughInterface(t *testing.T) {
	topo := chainTopo(2, 2, 2)
	c := NewContext(topo)
	budget := 4
	first := map[string]string{}
	for run := 0; run < 2; run++ {
		for _, name := range Names() {
			p, err := MustLookup(name).Plan(c, budget)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			if p.Size() > budget {
				t.Errorf("%s: plan size %d exceeds budget %d", name, p.Size(), budget)
			}
			if run == 0 {
				first[name] = p.Key()
			} else if p.Key() != first[name] {
				t.Errorf("%s: plan %v changed on the warm context", name, p.Tasks())
			}
		}
	}
}

// TestFullPlannerRejectsNonFullScope: the full planner's precondition
// (Full partitioning throughout the scope) is validated instead of
// silently producing a plan with no complete MC-tree.
func TestFullPlannerRejectsNonFullScope(t *testing.T) {
	b := topology.NewBuilder()
	src := b.AddSource("src", 4, 100)
	mid := b.AddOperator("mid", 2, topology.Independent, 1)
	b.Connect(src, mid, topology.Merge)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := NewContext(topo)
	if _, err := (Full{}).Plan(c, 3); err == nil {
		t.Error("full planner accepted a Merge-partitioned topology")
	}
}

// TestDPTreeCap: past maxTrees MC-trees the dynamic programming planner
// fails with mctree.ErrTooManyTrees. chainTopo(6, 6, 6, 6, 6) has
// 6^5 = 7,776 trees.
func TestDPTreeCap(t *testing.T) {
	topo := chainTopo(6, 6, 6, 6, 6)
	if _, err := (DP{}).Plan(NewContext(topo), 5); !errors.Is(err, mctree.ErrTooManyTrees) {
		t.Fatalf("DP error = %v, want mctree.ErrTooManyTrees", err)
	}
}

// TestDPSearchSpaceCap: past maxStates distinct candidate plans the
// dynamic programming planner fails with ErrSearchSpace. chainTopo(64,
// 64) has exactly maxTrees two-task trees; at budget 3 the search sees
// the empty plan, the 4,096 trees and 2·64·C(64, 2) = 258,048 distinct
// three-task unions, one more than maxStates = 2^18.
func TestDPSearchSpaceCap(t *testing.T) {
	if _, err := (DP{}).Plan(NewContext(chainTopo(64, 64)), 3); !errors.Is(err, ErrSearchSpace) {
		t.Fatalf("DP error = %v, want ErrSearchSpace", err)
	}
}

// TestMemoizationTransparent: objective values must be identical with
// and without memoization, on the whole-topology scope and on every
// sub-topology scope the planners evaluate.
func TestMemoizationTransparent(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo := randomSmallTopo(rng)
		memo := NewContext(topo)
		raw := NewContext(topo)
		p := New(topo.NumTasks())
		for i := 0; i < topo.NumTasks(); i++ {
			if rng.Intn(2) == 0 {
				p.Add(topology.TaskID(i))
			}
		}
		scopes := [][]int{allOps(topo)}
		for _, sub := range mctree.Decompose(topo) {
			scopes = append(scopes, sub.Ops)
			raw.ScopeOf(sub.Ops)
		}
		raw.SetMemoize(false)
		// Evaluate twice on the memoized context: the second read comes
		// from the cache and must be bit-identical.
		for run := 0; run < 2; run++ {
			if memo.OF(p) != raw.OF(p) || memo.IC(p) != raw.IC(p) {
				return false
			}
			for _, ops := range scopes {
				for _, m := range []Metric{MetricOF, MetricIC} {
					if memo.ScopeOf(ops).Eval(m, p) != raw.ScopeOf(ops).Eval(m, p) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestScopeExtendMatchesFullEval: the incremental scoped evaluation
// (base vector + dirty downstream update) must equal a from-scratch
// evaluation of the extended plan, bit for bit.
func TestScopeExtendMatchesFullEval(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo := randomSmallTopo(rng)
		c := NewContext(topo)
		base := New(topo.NumTasks())
		for i := 0; i < topo.NumTasks(); i++ {
			if rng.Intn(2) == 0 {
				base.Add(topology.TaskID(i))
			}
		}
		var ids []topology.TaskID
		for i := 0; i < topo.NumTasks(); i++ {
			if rng.Intn(3) == 0 {
				ids = append(ids, topology.TaskID(i))
			}
		}
		full := base.Clone()
		full.AddAll(ids)
		sc := c.ScopeOf(allOps(topo))
		for _, m := range []Metric{MetricOF, MetricIC} {
			// Fresh context per metric check so Eval cannot serve Extend
			// from the memo cache — force the incremental path.
			cc := NewContext(topo)
			cc.SetMemoize(false)
			scc := cc.ScopeOf(allOps(topo))
			if scc.Extend(m, base, ids) != sc.Eval(m, full) {
				t.Logf("seed %d metric %d: incremental != full", seed, m)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
