package plan

import (
	"sort"

	"repro/internal/topology"
)

// Greedy implements Algorithm 2: rank every task by the Output Fidelity
// of the topology when only that task fails (ascending — a task whose
// individual failure hurts the most ranks first) and replicate the
// top-budget tasks. The algorithm is fast (N fidelity evaluations,
// computed once per context and shared) but agnostic to MC-tree
// completeness, which the paper shows ruins its plans at small
// replication ratios (§VI-B, §VI-C).
type Greedy struct{}

// Name implements Planner.
func (Greedy) Name() string { return "greedy" }

// Plan implements Planner. It never fails; the error is always nil.
func (Greedy) Plan(c *Context, budget int) (Plan, error) {
	n := c.Topo.NumTasks()
	if budget > n {
		budget = n
	}
	type ranked struct {
		id topology.TaskID
		of float64
	}
	rs := make([]ranked, 0, n)
	for id, of := range c.singleFailureOFs() {
		rs = append(rs, ranked{id: topology.TaskID(id), of: of})
	}
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].of != rs[j].of {
			return rs[i].of < rs[j].of
		}
		return rs[i].id < rs[j].id
	})
	p := New(n)
	for i := 0; i < budget; i++ {
		p.Add(rs[i].id)
	}
	return p, nil
}
