package plan

import (
	"sync"

	"repro/internal/topology"
)

// maxMemoEntries bounds each objective cache so that exhaustive
// searches (brute force, huge DP levels) cannot exhaust memory; once a
// cache is full further values are still computed, just not retained.
const maxMemoEntries = 1 << 20

// Context bundles the topology and the evaluation scopes shared by the
// planners. The worst-case objectives are those of the whole-topology
// scope, built once; every scope memoizes its objective values keyed on
// Plan.Key, so the repeated candidate evaluations of the planners (and
// planners racing each other inside a Portfolio) share work. A Context
// is safe for concurrent use by multiple goroutines.
type Context struct {
	Topo *topology.Topology

	whole *Scope

	// single[id] is the OF when only task id fails — the greedy
	// ranking, computed once on first use.
	singleOnce sync.Once
	single     []float64

	mu   sync.Mutex
	memo bool
	// corr is the domain-correlated failure distribution of the
	// correlation-aware objective.
	corr   *ScenarioSet
	scopes map[string]*Scope
}

// NewContext builds a planning context for the topology. Memoization is
// enabled by default; see SetMemoize.
func NewContext(t *topology.Topology) *Context {
	c := &Context{
		Topo:   t,
		memo:   true,
		scopes: map[string]*Scope{},
	}
	ops := allOps(t)
	c.whole = newScope(c, ops)
	c.whole.setMemo(true)
	c.scopes[scopeSig(ops)] = c.whole
	return c
}

// SetMemoize enables or disables memoization of objective values (it
// is on by default). Disabling clears every scope's memo; it exists so
// benchmarks can quantify the value-memoization win and is not needed
// in normal use. The per-Scope base-vector reuse that powers
// incremental Extend evaluation is part of the planning algorithms
// themselves and is not affected by this switch, and neither is
// CorrObjective, which is never memoized.
func (c *Context) SetMemoize(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.memo = on
	for _, s := range c.scopes {
		s.setMemo(on)
	}
}

// ObjectiveWith evaluates the given metric of a plan under the
// worst-case correlated failure: the whole-topology scope's memoized
// Eval.
func (c *Context) ObjectiveWith(m Metric, p Plan) float64 { return c.whole.Eval(m, p) }

// OF evaluates the worst-case Output Fidelity of a plan: every
// non-replicated task is failed.
func (c *Context) OF(p Plan) float64 { return c.whole.Eval(MetricOF, p) }

// IC evaluates the worst-case Internal Completeness of a plan.
func (c *Context) IC(p Plan) float64 { return c.whole.Eval(MetricIC, p) }

// singleFailureOFs returns the OF of every single-task failure, indexed
// by TaskID: entry id is the whole-topology OF with every task alive but
// id. The vector is computed once per context and shared, so repeated
// greedy rankings (and greedy runs racing inside a portfolio) reuse it.
// The returned slice must not be modified.
func (c *Context) singleFailureOFs() []float64 {
	c.singleOnce.Do(func() {
		alive := make([]bool, c.Topo.NumTasks())
		for id := range alive {
			alive[id] = true
		}
		c.single = make([]float64, len(alive))
		for id := range alive {
			alive[id] = false
			c.single[id] = c.whole.eval(MetricOF, alive)
			alive[id] = true
		}
	})
	return c.single
}

// ScopeOf returns the (cached) precomputed evaluation scope for the
// given operator set. Scopes are keyed by their sorted operator
// signature, so planners working on the same sub-topology share one
// scope, its memo and its base vectors; the whole operator set maps to
// the scope behind OF and IC.
func (c *Context) ScopeOf(ops []int) *Scope {
	sig := scopeSig(ops)
	c.mu.Lock()
	if s, ok := c.scopes[sig]; ok {
		c.mu.Unlock()
		return s
	}
	c.mu.Unlock()
	s := newScope(c, ops)
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.scopes[sig]; ok {
		return prev
	}
	s.setMemo(c.memo)
	c.scopes[sig] = s
	return s
}
