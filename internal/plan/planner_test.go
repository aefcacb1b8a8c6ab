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
	want := []string{"brute", "dp", "dp-corr", "full", "greedy", "portfolio", "sa", "sa-corr", "sa-ic", "structured", "structured-corr"}
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
// uniformly on one topology; every plan must respect the budget.
func TestEveryPlannerThroughInterface(t *testing.T) {
	topo := chainTopo(2, 2, 2)
	c := NewContext(topo)
	budget := 4
	for _, name := range Names() {
		p, err := MustLookup(name).Plan(c, budget)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if p.Size() > budget {
			t.Errorf("%s: plan size %d exceeds budget %d", name, p.Size(), budget)
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
// fails with mctree.ErrTooManyTrees, and the portfolio skips it and
// still plans. chainTopo(6, 6, 6, 6, 6) has 6^5 = 7,776 trees.
func TestDPTreeCap(t *testing.T) {
	topo := chainTopo(6, 6, 6, 6, 6)
	if _, err := (DP{}).Plan(NewContext(topo), 5); !errors.Is(err, mctree.ErrTooManyTrees) {
		t.Fatalf("DP error = %v, want mctree.ErrTooManyTrees", err)
	}
	c := NewContext(topo)
	p, err := Portfolio{}.Plan(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if of := c.OF(p); of <= 0 {
		t.Errorf("portfolio OF = %v, want > 0 (one complete chain affordable)", of)
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

// TestPortfolioDefaultExcludesBrute: the default planner set must not
// block on the exponential brute-force sweep.
func TestPortfolioDefaultExcludesBrute(t *testing.T) {
	// 2^20 brute evaluations would dominate this test's runtime; with
	// brute excluded the portfolio finishes promptly and still plans.
	topo := chainTopo(4, 4, 4, 4, 4)
	c := NewContext(topo)
	p, err := Portfolio{}.Plan(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if of := c.OF(p); of <= 0 {
		t.Errorf("portfolio OF = %v, want > 0 (one complete chain affordable)", of)
	}
}

// TestPortfolioMatchesBruteForce: on topologies small enough for the
// exhaustive reference, the portfolio contains the optimal DP planner
// and so must match the brute-force optimum.
func TestPortfolioMatchesBruteForce(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo := randomSmallTopo(rng)
		c := NewContext(topo)
		budget := rng.Intn(topo.NumTasks() + 1)
		pf, err := Portfolio{}.Plan(c, budget)
		if err != nil {
			return false
		}
		bf, err := Brute{}.Plan(c, budget)
		if err != nil {
			return false
		}
		pfOF, bfOF := c.OF(pf), c.OF(bf)
		if pfOF < bfOF-1e-12 || pfOF > bfOF+1e-12 {
			t.Logf("seed %d: portfolio OF %v != brute-force optimum %v (budget %d)", seed, pfOF, bfOF, budget)
			return false
		}
		return pf.Size() <= budget
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPortfolioDeterministic: racing the planners concurrently must not
// make the selected plan depend on goroutine scheduling. Run under
// -race this also exercises the shared memoized Context.
func TestPortfolioDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		topo := randomSmallTopo(rng)
		budget := 1 + rng.Intn(topo.NumTasks())
		var firstKey string
		for run := 0; run < 4; run++ {
			c := NewContext(topo)
			p, err := Portfolio{}.Plan(c, budget)
			if err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				firstKey = p.Key()
			} else if p.Key() != firstKey {
				t.Fatalf("trial %d: portfolio run %d picked a different plan", trial, run)
			}
		}
	}
}

// TestPortfolioSharedContext runs the portfolio repeatedly on one
// shared context (the memo caches grow across runs) and checks the
// result stays stable.
func TestPortfolioSharedContext(t *testing.T) {
	topo := chainTopo(2, 3, 2)
	c := NewContext(topo)
	var firstKey string
	for run := 0; run < 3; run++ {
		p, err := Portfolio{}.Plan(c, 4)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			firstKey = p.Key()
		} else if p.Key() != firstKey {
			t.Fatalf("run %d: portfolio plan changed on a warm context", run)
		}
	}
}

// TestParallelSearchBitIdentical: DP candidate expansion and SA segment
// enumeration must produce bit-identical plans regardless of the
// worker count.
func TestParallelSearchBitIdentical(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo := randomSmallTopo(rng)
		budget := rng.Intn(topo.NumTasks() + 1)

		seqCtx := NewContext(topo)
		parCtx := NewContext(topo)

		dpSeq, err1 := DP{Workers: 1}.Plan(seqCtx, budget)
		dpPar, err2 := DP{Workers: 8}.Plan(parCtx, budget)
		if (err1 == nil) != (err2 == nil) {
			t.Logf("seed %d: DP error mismatch: %v vs %v", seed, err1, err2)
			return false
		}
		if err1 == nil && dpSeq.Key() != dpPar.Key() {
			t.Logf("seed %d: DP parallel plan %v != sequential %v (budget %d)",
				seed, dpPar.Tasks(), dpSeq.Tasks(), budget)
			return false
		}

		saSeq, err1 := SA{Workers: 1}.Plan(seqCtx, budget)
		saPar, err2 := SA{Workers: 8}.Plan(parCtx, budget)
		if (err1 == nil) != (err2 == nil) {
			t.Logf("seed %d: SA error mismatch: %v vs %v", seed, err1, err2)
			return false
		}
		if err1 == nil && saSeq.Key() != saPar.Key() {
			t.Logf("seed %d: SA parallel plan %v != sequential %v (budget %d)",
				seed, saPar.Tasks(), saSeq.Tasks(), budget)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
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
		raw.SetMemoize(false)
		p := New(topo.NumTasks())
		for i := 0; i < topo.NumTasks(); i++ {
			if rng.Intn(2) == 0 {
				p.Add(topology.TaskID(i))
			}
		}
		scopes := [][]int{allOps(topo)}
		for _, sub := range mctree.Decompose(topo) {
			scopes = append(scopes, sub.Ops)
		}
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

// TestPortfolioExplicitPlanners: a portfolio over an explicit planner
// list uses exactly those planners.
func TestPortfolioExplicitPlanners(t *testing.T) {
	topo := chainTopo(2, 2, 2)
	c := NewContext(topo)
	// Greedy alone at budget 3 yields OF 0 on this chain; the portfolio
	// over {greedy} must reproduce that, while adding SA must beat it.
	g, err := Portfolio{Planners: []Planner{Greedy{}}}.Plan(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if of := c.OF(g); of != 0 {
		t.Errorf("greedy-only portfolio OF = %v, want 0", of)
	}
	both, err := Portfolio{Planners: []Planner{Greedy{}, SA{}}}.Plan(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if of := c.OF(both); of <= 0 {
		t.Errorf("greedy+sa portfolio OF = %v, want > 0", of)
	}
}
