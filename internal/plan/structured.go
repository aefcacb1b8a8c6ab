package plan

import (
	"fmt"
	"sort"

	"repro/internal/mctree"
	"repro/internal/topology"
)

// maxSegments caps segment enumeration per unit of a structured
// (sub-)topology.
const maxSegments = 4096

// structuredState caches the unit decomposition of one structured
// (sub-)topology so that repeated planning steps do not recompute it.
type structuredState struct {
	scope  *Scope
	metric Metric
	units  []mctree.Unit
	// unitScopes caches each unit's evaluation scope; segmentValue runs
	// in the BFS inner loop and must not rebuild scope signatures there.
	unitScopes []*Scope
	adj        [][]int // unit adjacency
}

func newStructuredState(c *Context, ops []int, m Metric) (*structuredState, error) {
	units, err := mctree.SplitUnits(c.Topo, mctree.SubTopology{Ops: ops, Kind: mctree.StructuredSub}, maxSegments)
	if err != nil {
		return nil, fmt.Errorf("plan: splitting units: %w", err)
	}
	st := &structuredState{
		scope:      c.ScopeOf(ops),
		metric:     m,
		units:      units,
		unitScopes: make([]*Scope, len(units)),
		adj:        make([][]int, len(units)),
	}
	for ui, u := range units {
		st.unitScopes[ui] = c.ScopeOf(u.Ops)
	}
	// Units are adjacent when an operator edge crosses between them.
	opUnit := map[int]int{}
	for ui, u := range units {
		for _, op := range u.Ops {
			opUnit[op] = ui
		}
	}
	seen := map[[2]int]bool{}
	for ui, u := range units {
		for _, op := range u.Ops {
			for _, d := range c.Topo.DownstreamOps(op) {
				vi, ok := opUnit[d]
				if !ok || vi == ui {
					continue
				}
				for _, pair := range [][2]int{{ui, vi}, {vi, ui}} {
					if !seen[pair] {
						seen[pair] = true
						st.adj[pair[0]] = append(st.adj[pair[0]], pair[1])
					}
				}
			}
		}
	}
	for _, a := range st.adj {
		sort.Ints(a)
	}
	return st, nil
}

// segmentValue scores a segment by the scoped OF of its unit treated as
// an independent topology with only the segment alive (the paper's
// max_of ranking).
func (st *structuredState) segmentValue(c *Context, ui int, seg mctree.Tree) float64 {
	p := New(c.Topo.NumTasks())
	p.AddAll(seg.Tasks)
	return st.unitScopes[ui].Eval(st.metric, p)
}

// step proposes the next expansion per one iteration of Algorithm 3
// (PLANSTRUCTUREDTOPOLOGY): every non-replicated segment seeds a
// candidate (see grow), and the candidate with the maximal profit
// density (OF(P ∪ CG) - OF(P)) / |CG| (Alg. 3 line 17) is returned,
// ties broken towards the smaller, then lexicographically smaller task
// set (nil when no affordable candidate exists).
func (st *structuredState) step(c *Context, cur Plan, maxCost int) []topology.TaskID {
	if maxCost <= 0 {
		return nil
	}
	baseOF := st.scope.EvalBase(st.metric, cur)
	bestDensity := -1.0
	var best []topology.TaskID
	for ui, unit := range st.units {
		for _, seg := range unit.Segments {
			ids := st.grow(c, cur, ui, seg, baseOF, maxCost)
			if len(ids) == 0 {
				continue
			}
			density := (st.scope.Extend(st.metric, cur, ids) - baseOF) / float64(len(ids))
			if density > bestDensity ||
				(density == bestDensity && (best == nil || lessIDs(ids, best))) {
				bestDensity = density
				best = ids
			}
		}
	}
	return best
}

// grow builds the candidate that segment seg of unit ui seeds: the
// tasks of the segment that cur does not replicate. A segment that
// alone does not raise the scoped OF above baseOF is extended by a BFS
// over the neighbouring units, each visited unit contributing its best
// segment connected to the candidate, stopping when maxCost would be
// exceeded (Alg. 3 lines 10-15). It returns nil when the segment is
// already replicated or the candidate is not affordable.
func (st *structuredState) grow(c *Context, cur Plan, ui int, seg mctree.Tree, baseOF float64, maxCost int) []topology.TaskID {
	if seg.NonReplicated(cur.Vector()) == 0 {
		return nil
	}
	cg := []mctree.Tree{seg}
	ids := newTasks(cur, cg)
	if len(ids) > maxCost {
		return nil
	}
	if st.scope.Extend(st.metric, cur, ids) > baseOF {
		return ids
	}
	visited := map[int]bool{ui: true}
	queue := append([]int(nil), st.adj[ui]...)
	for len(queue) > 0 {
		vi := queue[0]
		queue = queue[1:]
		if visited[vi] {
			continue
		}
		visited[vi] = true
		gj, ok := st.bestConnected(c, vi, cg, cur)
		if !ok {
			continue
		}
		if len(newTasks(cur, cg))+gj.NonReplicated(cur.Vector()) > maxCost {
			break // Alg. 3 line 15: stop the BFS
		}
		cg = append(cg, gj)
		for _, next := range st.adj[vi] {
			if !visited[next] {
				queue = append(queue, next)
			}
		}
	}
	if ids = newTasks(cur, cg); len(ids) > maxCost {
		return nil
	}
	return ids
}

// newTasks returns the tasks of the segments that cur does not
// replicate, in ascending order.
func newTasks(cur Plan, segs []mctree.Tree) []topology.TaskID {
	set := map[topology.TaskID]bool{}
	for _, s := range segs {
		for _, id := range s.Tasks {
			if !cur.Has(id) {
				set[id] = true
			}
		}
	}
	ids := make([]topology.TaskID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sortTaskIDs(ids)
	return ids
}

// bestConnected returns the segment of unit vi that is connected to the
// candidate segment set and has the maximal standalone value.
func (st *structuredState) bestConnected(c *Context, vi int, cg []mctree.Tree, cur Plan) (mctree.Tree, bool) {
	bestVal := -1.0
	var best mctree.Tree
	found := false
	for _, seg := range st.units[vi].Segments {
		if seg.NonReplicated(cur.Vector()) == 0 {
			continue
		}
		connected := false
		for _, s := range cg {
			if mctree.SegmentsConnected(c.Topo, seg, s) {
				connected = true
				break
			}
		}
		if !connected {
			continue
		}
		if v := st.segmentValue(c, vi, seg); v > bestVal {
			bestVal = v
			best = seg
			found = true
		}
	}
	return best, found
}

func lessIDs(a, b []topology.TaskID) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Structured implements Algorithm 3 over the whole topology: grow the
// OF-optimal expansions of a structured topology from the empty plan
// until the budget of replicated tasks is spent.
type Structured struct{}

// Name implements Planner.
func (Structured) Name() string { return "structured" }

// Plan implements Planner.
func (Structured) Plan(c *Context, budget int) (Plan, error) {
	st, err := newStructuredState(c, allOps(c.Topo), MetricOF)
	if err != nil {
		return Plan{}, err
	}
	p := New(c.Topo.NumTasks())
	for {
		used := p.Size()
		if used >= budget {
			return p, nil
		}
		ids := st.step(c, p, budget-used)
		if len(ids) == 0 {
			return p, nil
		}
		p.AddAll(ids)
	}
}
