package plan

import (
	"fmt"
	"sort"

	"repro/internal/mctree"
	"repro/internal/topology"
)

// subPlanner produces incremental expansions within one sub-topology.
type subPlanner interface {
	step(c *Context, cur Plan, maxCost int) []topology.TaskID
	scope() *Scope
}

type fullSub struct{ st *fullState }

func (f *fullSub) scope() *Scope { return f.st.scope }
func (f *fullSub) step(c *Context, cur Plan, maxCost int) []topology.TaskID {
	ids := f.st.step(c, cur)
	if len(ids) == 0 || len(ids) > maxCost {
		return nil
	}
	return ids
}

type structuredSub struct{ st *structuredState }

func (s *structuredSub) scope() *Scope { return s.st.scope }
func (s *structuredSub) step(c *Context, cur Plan, maxCost int) []topology.TaskID {
	return s.st.step(c, cur, maxCost)
}

// SA implements Algorithm 5, the structure-aware general planner:
// decompose the general topology into full and structured
// sub-topologies (§IV-C3), give each sub-topology an initial complete
// MC-tree, then repeatedly apply the sub-topology expansion with the
// best profit density until the budget is exhausted. A budget smaller
// than the smallest MC-tree yields the empty plan: no complete MC-tree
// is affordable, so no plan can have a positive worst-case OF (the
// paper's Alg. 5 lines 3-4 use the operator count as this bound, which
// is exact only when every tree spans all operators).
type SA struct {
	// Metric selects the optimisation objective (default MetricOF;
	// MetricIC reproduces the paper's Fig. 12 IC-optimised plans and
	// is the registry's "sa-ic" planner).
	Metric Metric
}

// Name implements Planner: "sa" for the OF objective, "sa-ic" for the
// IC variant.
func (s SA) Name() string {
	if s.Metric == MetricIC {
		return "sa-ic"
	}
	return "sa"
}

// Plan implements Planner.
func (s SA) Plan(c *Context, budget int) (Plan, error) {
	m := s.Metric
	t := c.Topo
	p := New(t.NumTasks())
	if budget < mctree.MinTreeSize(t) && m == MetricOF {
		return p, nil
	}

	subs := mctree.Decompose(t)
	// Seed downstream sub-topologies first: without a complete segment
	// chain on the sink side no upstream replication can contribute to
	// the output, so the initial pass must not exhaust the budget on
	// upstream subs.
	pos := make(map[int]int, t.NumOps())
	for i, op := range t.OpOrder() {
		pos[op] = i
	}
	depth := func(ops []int) int {
		d := 0
		for _, op := range ops {
			if pos[op] > d {
				d = pos[op]
			}
		}
		return d
	}
	sort.SliceStable(subs, func(i, j int) bool { return depth(subs[i].Ops) > depth(subs[j].Ops) })

	planners := make([]subPlanner, 0, len(subs))
	for _, sub := range subs {
		if sub.Kind == mctree.FullSub {
			planners = append(planners, &fullSub{st: newFullState(c, sub.Ops, m)})
			continue
		}
		st, err := newStructuredState(c, sub.Ops, m)
		if err != nil {
			return Plan{}, fmt.Errorf("plan: structure-aware: %w", err)
		}
		planners = append(planners, &structuredSub{st: st})
	}

	usage := 0
	// Initialisation: one expansion per sub-topology so that a complete
	// MC-tree spans the whole topology.
	for _, sp := range planners {
		ids := sp.step(c, p, budget-usage)
		if len(ids) == 0 {
			continue
		}
		p.AddAll(ids)
		usage += len(ids)
	}

	// Iterate: apply the sub-topology step with the maximal profit
	// density, measured on the global worst-case OF (Alg. 5 lines
	// 11-18). Scoped improvement breaks ties so that progress continues
	// while some sub-topology is still below a complete tree.
	for usage < budget {
		baseOF := c.ObjectiveWith(m, p)
		bestDensity, bestScoped := -1.0, -1.0
		var bestIDs []topology.TaskID
		for _, sp := range planners {
			ids := sp.step(c, p, budget-usage)
			if len(ids) == 0 {
				continue
			}
			probe := p.Clone()
			probe.AddAll(ids)
			density := (c.ObjectiveWith(m, probe) - baseOF) / float64(len(ids))
			scopedBase := sp.scope().EvalBase(m, p)
			scoped := (sp.scope().Extend(m, p, ids) - scopedBase) / float64(len(ids))
			if density > bestDensity || (density == bestDensity && scoped > bestScoped) {
				bestDensity = density
				bestScoped = scoped
				bestIDs = ids
			}
		}
		if len(bestIDs) == 0 {
			break
		}
		p.AddAll(bestIDs)
		usage += len(bestIDs)
	}
	return p, nil
}
