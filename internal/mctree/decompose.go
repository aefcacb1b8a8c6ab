package mctree

import (
	"sort"

	"repro/internal/topology"
)

// SubKind classifies a sub-topology per §IV-C.
type SubKind int

const (
	// StructuredSub: only the operators producing the sub-topology's
	// outputs may use Full partitioning; internal edges are one-to-one,
	// split or merge.
	StructuredSub SubKind = iota
	// FullSub: all operators use Full partitioning.
	FullSub
)

// String returns a short name for the sub-topology kind.
func (k SubKind) String() string {
	if k == FullSub {
		return "full"
	}
	return "structured"
}

// SubTopology is one piece of the general-topology decomposition of
// Algorithm 5: a set of operators handled as a unit by either the
// structured-topology planner (Alg. 3) or the full-topology planner
// (Alg. 4).
type SubTopology struct {
	Ops  []int
	Kind SubKind
}

// Decompose splits a general topology into sub-topologies, each either
// a full topology or a structured topology, by multiple upstream DFS
// traversals starting from the sink operators (§IV-C3). Boundaries are
// placed so that at least one partitioning function between neighbouring
// sub-topologies is Full, which makes segment selection in the
// sub-topologies independent of each other.
func Decompose(t *topology.Topology) []SubTopology {
	assigned := make([]bool, t.NumOps())
	startSet := map[int]bool{}
	var starts []int
	for _, op := range t.SinkOps() {
		starts = append(starts, op)
		startSet[op] = true
	}
	var subs []SubTopology
	for len(starts) > 0 {
		os := starts[0]
		starts = starts[1:]
		if assigned[os] {
			continue
		}
		kind := classifyStart(t, os)
		member := map[int]bool{os: true}
		assigned[os] = true
		// Upstream DFS. An upstream operator is compatible if all of its
		// edges into the current sub-topology match the kind: Full for a
		// full topology; non-Full for a structured one, except that Full
		// partitioning may feed the structured sub-topology's output
		// operator (its start operator), per the structured-topology
		// definition of §IV-C.
		stack := []int{os}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range t.UpstreamOps(cur) {
				if member[u] || assigned[u] {
					continue
				}
				if compatible(t, u, os, member, kind) {
					member[u] = true
					assigned[u] = true
					stack = append(stack, u)
				} else if !startSet[u] {
					startSet[u] = true
					starts = append(starts, u)
				}
			}
		}
		sub := SubTopology{Kind: kind}
		for op := range member {
			sub.Ops = append(sub.Ops, op)
		}
		sort.Ints(sub.Ops)
		subs = append(subs, sub)
	}
	// Deterministic order: by smallest member operator.
	sort.Slice(subs, func(i, j int) bool { return subs[i].Ops[0] < subs[j].Ops[0] })
	return subs
}

// classifyStart decides whether the sub-topology grown from start
// operator os is a full topology or a structured topology. It is a full
// topology when all of os's input edges are Full and the immediate
// upstream operators are themselves full-type (sources, or all of their
// own inputs are Full); a single layer of Full edges into os is instead
// the legal Full partitioning into a structured topology's output
// operator.
func classifyStart(t *topology.Topology, os int) SubKind {
	ups := t.UpstreamOps(os)
	if len(ups) == 0 {
		return StructuredSub
	}
	for _, u := range ups {
		if e, ok := t.EdgeBetween(u, os); !ok || e.Part != topology.Full {
			return StructuredSub
		}
	}
	for _, u := range ups {
		for _, uu := range t.UpstreamOps(u) {
			if e, ok := t.EdgeBetween(uu, u); !ok || e.Part != topology.Full {
				return StructuredSub
			}
		}
	}
	return FullSub
}

// compatible reports whether operator u may join the sub-topology with
// the given members and kind, considering every edge from u into the
// member set. start is the sub-topology's output operator.
func compatible(t *topology.Topology, u, start int, member map[int]bool, kind SubKind) bool {
	for _, d := range t.DownstreamOps(u) {
		if !member[d] {
			continue
		}
		e, _ := t.EdgeBetween(u, d)
		if kind == FullSub && e.Part != topology.Full {
			return false
		}
		if kind == StructuredSub && e.Part == topology.Full && d != start {
			return false
		}
	}
	return true
}

// Unit is one unit of a structured (sub-)topology per §IV-C1, together
// with its segments (the MC-trees of the unit treated as a standalone
// topology).
type Unit struct {
	Ops      []int
	Segments []Tree
}

// SplitUnits divides a structured sub-topology into units so that the
// number of segments per unit stays small. Unit boundaries are placed on
// a merge edge (u -> v) when v also splits its output or when v is a
// correlated-input (join) operator — the two situations of Fig. 3 that
// multiply MC-tree counts — and on any Full edge.
func SplitUnits(t *topology.Topology, sub SubTopology, maxSegments int) ([]Unit, error) {
	inSub := make(map[int]bool, len(sub.Ops))
	for _, op := range sub.Ops {
		inSub[op] = true
	}
	boundary := func(u, v int) bool {
		e, ok := t.EdgeBetween(u, v)
		if !ok {
			return true
		}
		if e.Part == topology.Full {
			return true
		}
		if e.Part == topology.Merge {
			if t.Ops[v].Kind == topology.Correlated {
				return true
			}
			for _, d := range t.DownstreamOps(v) {
				if !inSub[d] {
					continue
				}
				if de, ok := t.EdgeBetween(v, d); ok && de.Part == topology.Split {
					return true
				}
			}
		}
		return false
	}
	// Union of operators connected by non-boundary edges.
	uf := newUnionFind(t.NumOps())
	for _, u := range sub.Ops {
		for _, d := range t.DownstreamOps(u) {
			if inSub[d] && !boundary(u, d) {
				uf.union(u, d)
			}
		}
	}
	groups := map[int][]int{}
	for _, op := range sub.Ops {
		r := uf.find(op)
		groups[r] = append(groups[r], op)
	}
	var roots []int
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	var units []Unit
	for _, r := range roots {
		ops := groups[r]
		sort.Ints(ops)
		segs, err := EnumerateSub(t, ops, maxSegments)
		if err != nil {
			return nil, err
		}
		units = append(units, Unit{Ops: ops, Segments: segs})
	}
	return units, nil
}

// UnitsConnected reports whether two segments are connected: some task
// of a has a substream to some task of b or vice versa.
func SegmentsConnected(t *topology.Topology, a, b Tree) bool {
	inB := make(map[topology.TaskID]bool, len(b.Tasks))
	for _, id := range b.Tasks {
		inB[id] = true
	}
	for _, id := range a.Tasks {
		for _, d := range t.DownstreamTasks(id) {
			if inB[d] {
				return true
			}
		}
		for _, u := range t.UpstreamTasks(id) {
			if inB[u] {
				return true
			}
		}
	}
	return false
}

// IsFullTopology reports whether every operator of the topology connects
// to each downstream neighbour with Full partitioning. Only tests call
// it: this package's and internal/randtopo's TestGenerateFullTopology.
func IsFullTopology(t *topology.Topology) bool {
	for _, e := range t.Edges {
		if e.Part != topology.Full {
			return false
		}
	}
	return true
}

type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[rb] = ra
	}
}
