package plan

import "repro/internal/topology"

// maxMemoEntries bounds each objective cache so that exhaustive
// searches (brute force, huge DP levels) cannot exhaust memory; once a
// cache is full further values are still computed, just not retained.
const maxMemoEntries = 1 << 20

// Context bundles the topology and the evaluation scopes shared by the
// planners. The worst-case objectives are those of the whole-topology
// scope, built once; every scope memoizes its objective values keyed on
// Plan.Key, so the repeated candidate evaluations of a planner, and of
// planners run one after another on the context, share work. A Context
// serves one goroutine: the planners run on their caller's goroutine,
// and only the correlation evaluation fans out (see CorrObjective).
type Context struct {
	Topo *topology.Topology

	whole *Scope

	// single[id] is the OF when only task id fails — the greedy
	// ranking, computed on first use.
	single []float64

	// corr is the domain-correlated failure distribution of the
	// correlation-aware objective.
	corr   *ScenarioSet
	scopes map[string]*Scope
}

// NewContext builds a planning context for the topology.
func NewContext(t *topology.Topology) *Context {
	c := &Context{Topo: t, scopes: map[string]*Scope{}}
	c.whole = c.ScopeOf(allOps(t))
	return c
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
// id. The vector is computed once per context, so repeated greedy
// rankings reuse it. The returned slice must not be modified.
func (c *Context) singleFailureOFs() []float64 {
	if c.single != nil {
		return c.single
	}
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
	return c.single
}

// ScopeOf returns the (cached) precomputed evaluation scope for the
// given operator set. Scopes are keyed by their sorted operator
// signature, so planners working on the same sub-topology share one
// scope, its memo and its base vectors; the whole operator set maps to
// the scope behind OF and IC.
func (c *Context) ScopeOf(ops []int) *Scope {
	sig := scopeSig(ops)
	s, ok := c.scopes[sig]
	if !ok {
		s = newScope(c, ops)
		c.scopes[sig] = s
	}
	return s
}
