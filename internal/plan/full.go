package plan

import (
	"fmt"
	"sort"

	"repro/internal/topology"
)

// fullState caches the per-operator task ranking of one full
// (sub-)topology. The ranking (delta_ij of §IV-C2) depends only on the
// scope and metric — not on the plan being grown — so it is computed
// once and reused by every expansion step.
type fullState struct {
	scope  *Scope
	metric Metric
	ranked map[int][]topology.TaskID // computed on first use
}

func newFullState(c *Context, ops []int, m Metric) *fullState {
	return &fullState{scope: c.ScopeOf(ops), metric: m}
}

// rank orders the tasks of each scope operator by delta_ij, the
// scoped-OF increase obtained by replicating the task under the
// assumption that all other tasks of the same operator are failed and
// the tasks of the other operators are alive (§IV-C2).
func (f *fullState) rank(c *Context) map[int][]topology.TaskID {
	if f.ranked != nil {
		return f.ranked
	}
	t := c.Topo
	ops := f.scope.Ops()
	f.ranked = make(map[int][]topology.TaskID, len(ops))
	for _, op := range ops {
		// pseudo-plan: every in-scope task of the other operators is
		// alive ("replicated"), operator op contributes only the probe.
		base := New(t.NumTasks())
		for _, other := range ops {
			if other == op {
				continue
			}
			base.AddAll(t.TasksOf(other))
		}
		type scored struct {
			id topology.TaskID
			d  float64
		}
		var ss []scored
		for _, id := range t.TasksOf(op) {
			ss = append(ss, scored{id: id, d: f.scope.Extend(f.metric, base, []topology.TaskID{id})})
		}
		sort.SliceStable(ss, func(i, j int) bool {
			if ss[i].d != ss[j].d {
				return ss[i].d > ss[j].d
			}
			return ss[i].id < ss[j].id
		})
		ids := make([]topology.TaskID, len(ss))
		for i, s := range ss {
			ids[i] = s.id
		}
		f.ranked[op] = ids
	}
	return f.ranked
}

// step proposes the next expansion of the current plan within the full
// (sub-)topology per Algorithm 4. When the plan covers no complete
// MC-tree of the scope yet, the proposal is one best task per operator
// (in a full topology any one task per operator forms an MC-tree);
// afterwards it is the single next-best task across operators. It
// returns nil when every scope task is already replicated.
func (f *fullState) step(c *Context, cur Plan) []topology.TaskID {
	t := c.Topo
	ops := f.scope.Ops()
	ranked := f.rank(c)

	// Does the current plan include at least one task of every operator?
	complete := true
	for _, op := range ops {
		found := false
		for _, id := range t.TasksOf(op) {
			if cur.Has(id) {
				found = true
				break
			}
		}
		if !found {
			complete = false
			break
		}
	}

	if !complete {
		// Initial MC-tree: the best non-replicated task of each operator
		// that lacks one.
		var out []topology.TaskID
		for _, op := range ops {
			has := false
			for _, id := range t.TasksOf(op) {
				if cur.Has(id) {
					has = true
					break
				}
			}
			if has {
				continue
			}
			for _, id := range ranked[op] {
				if !cur.Has(id) {
					out = append(out, id)
					break
				}
			}
		}
		sortTaskIDs(out)
		return out
	}

	// Single-task expansion: per operator, the next best task; choose
	// the candidate plan with maximal scoped OF. The candidates extend
	// cur by one task, so each evaluation is an incremental update of
	// cur's cached propagation vector.
	bestOF := -1.0
	var bestID topology.TaskID = -1
	for _, op := range ops {
		for _, id := range ranked[op] {
			if cur.Has(id) {
				continue
			}
			of := f.scope.Extend(f.metric, cur, []topology.TaskID{id})
			if of > bestOF || (of == bestOF && id < bestID) {
				bestOF = of
				bestID = id
			}
			break // only the operator's next-best task is considered
		}
	}
	if bestID < 0 {
		return nil
	}
	return []topology.TaskID{bestID}
}

// Full implements Algorithm 4 (PLANFULLTOPOLOGY): plan OF-optimal
// active replication within a full (sub-)topology from the empty plan
// under a budget of replicated tasks within the scope. If the budget
// cannot cover one task per operator, the empty plan is returned (no
// complete MC-tree is affordable).
type Full struct {
	// Ops is the operator scope; nil plans over the whole topology.
	Ops []int
}

// Name implements Planner.
func (Full) Name() string { return "full" }

// Plan implements Planner. It fails when the scope is not a full
// (sub-)topology — Algorithm 4's "one task per operator forms an
// MC-tree" seeding is unsound anywhere else and would silently spend
// the budget on a plan with zero worst-case OF.
func (f Full) Plan(c *Context, budget int) (Plan, error) {
	ops := f.Ops
	if ops == nil {
		ops = allOps(c.Topo)
	}
	inScope := make(map[int]bool, len(ops))
	for _, op := range ops {
		inScope[op] = true
	}
	for _, e := range c.Topo.Edges {
		if inScope[e.From] && inScope[e.To] && e.Part != topology.Full {
			return Plan{}, fmt.Errorf("plan: full planner requires Full partitioning throughout the scope (edge %d->%d is %v)", e.From, e.To, e.Part)
		}
	}
	p := New(c.Topo.NumTasks())
	st := newFullState(c, ops, MetricOF)
	for {
		used := scopeUsage(c.Topo, ops, p)
		if used >= budget {
			return p, nil
		}
		ids := st.step(c, p)
		if len(ids) == 0 {
			return p, nil
		}
		if used+len(ids) > budget {
			return p, nil
		}
		p.AddAll(ids)
	}
}

// scopeUsage counts the plan's replicated tasks within the scope ops.
func scopeUsage(t *topology.Topology, ops []int, p Plan) int {
	n := 0
	for _, op := range ops {
		for _, id := range t.TasksOf(op) {
			if p.Has(id) {
				n++
			}
		}
	}
	return n
}
