// Package plan implements the partially-active replication planners of
// Su & Zhou (ICDE 2016), §IV: the optimal dynamic-programming algorithm
// over MC-trees (Alg. 1), the task-level greedy algorithm (Alg. 2), the
// structured-topology planner (Alg. 3), the full-topology planner
// (Alg. 4) and the structure-aware general planner (Alg. 5), plus a
// brute-force reference optimiser used to validate optimality in tests.
//
// All planners solve the same problem (Definition 2): given a topology
// and a resource budget of R actively replicated tasks, choose the R
// tasks that maximise the Output Fidelity of the partial topology that
// survives a worst-case correlated failure (every non-replicated task
// failed). They are exposed uniformly through the Planner interface and
// the fixed package registry (Lookup/Names), and share one Context — a
// memoizing objective evaluator. As in §IV, every planner is a
// sequential algorithm that runs on its caller's goroutine, and a
// Context serves one goroutine; only the correlation evaluation of the
// *-corr variants fans out (see Corr). Budget turns a replication ratio
// into the task budget, and Diff gives the replicas to start and stop
// when one plan replaces another (§V-C).
//
// The package also owns the output-quality models of §III that the
// planners optimise. Output Fidelity (OF) estimates the quality of the
// tentative outputs a topology produces while some of its tasks are
// failed: information loss (IL) is propagated from the failed tasks
// through the topology DAG down to the sink operators (Eqs. 1–3),
// distinguishing correlated-input (join) operators from
// independent-input operators, and OF is the rate-weighted complement
// of the sinks' losses (Eq. 4). Internal Completeness (IC), the metric
// of Bellavista et al. (EDBT'14) that the paper's evaluation uses as a
// baseline, propagates plain rates instead and ignores input-stream
// correlation, which is why it mispredicts the quality of queries with
// joins (§VI-B). Both are evaluated by a Scope: the whole-topology
// scope of a Context is the §III model, and sub-topology scopes serve
// the structure-aware planners (§IV-C3).
package plan

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/topology"
)

// Plan is a partially active replication plan: the set of tasks chosen
// for active replication.
type Plan struct {
	replicated []bool
	size       int
}

// New returns an empty plan for a topology with n tasks.
func New(n int) Plan {
	return Plan{replicated: make([]bool, n)}
}

// Clone returns an independent copy of the plan.
func (p Plan) Clone() Plan {
	q := Plan{replicated: make([]bool, len(p.replicated)), size: p.size}
	copy(q.replicated, p.replicated)
	return q
}

// Size returns the number of replicated tasks (the plan's resource
// usage).
func (p Plan) Size() int { return p.size }

// Has reports whether the task is replicated under the plan.
func (p Plan) Has(id topology.TaskID) bool { return p.replicated[id] }

// Add marks a task as replicated. Adding an already-replicated task is a
// no-op.
func (p *Plan) Add(id topology.TaskID) {
	if !p.replicated[id] {
		p.replicated[id] = true
		p.size++
	}
}

// Remove unmarks a replicated task. Removing a non-replicated task is a
// no-op.
func (p *Plan) Remove(id topology.TaskID) {
	if p.replicated[id] {
		p.replicated[id] = false
		p.size--
	}
}

// AddAll marks every listed task as replicated.
func (p *Plan) AddAll(ids []topology.TaskID) {
	for _, id := range ids {
		p.Add(id)
	}
}

// Tasks returns the replicated task IDs in ascending order.
func (p Plan) Tasks() []topology.TaskID {
	out := make([]topology.TaskID, 0, p.size)
	for i, r := range p.replicated {
		if r {
			out = append(out, topology.TaskID(i))
		}
	}
	return out
}

// Vector returns the plan as a boolean vector indexed by TaskID. The
// returned slice aliases the plan's storage and must not be modified.
func (p Plan) Vector() []bool { return p.replicated }

// Key returns a canonical identity of the plan's task set (a compact
// bitmap), used to deduplicate candidate plans in the dynamic
// programming algorithm and as the memoization key of the Context's
// objective caches. ScenarioSet dedup uses the same encoding (boolKey).
func (p Plan) Key() string { return boolKey(p.replicated) }

// Budget converts a replication ratio (0.5 for PPA-0.5) into a budget
// of actively replicated tasks out of n, rounded to the nearest task.
// A ratio outside [0, 1], NaN included, is an error.
func Budget(n int, frac float64) (int, error) {
	if !(frac >= 0 && frac <= 1) {
		return 0, fmt.Errorf("plan: replication fraction %v outside [0, 1]", frac)
	}
	return int(math.Round(frac * float64(n))), nil
}

// Diff computes the dynamic-plan-adaptation delta of §V-C: which tasks
// need a new active replica and which replicas can be deactivated when
// switching from the old plan to the new one.
func Diff(old, new Plan) (activate, deactivate []topology.TaskID) {
	for _, id := range new.Tasks() {
		if !old.Has(id) {
			activate = append(activate, id)
		}
	}
	for _, id := range old.Tasks() {
		if !new.Has(id) {
			deactivate = append(deactivate, id)
		}
	}
	return activate, deactivate
}

// Metric selects the quality model a planner optimises: the paper's
// Output Fidelity, or the Internal Completeness baseline it compares
// against in Fig. 12.
type Metric int

const (
	// MetricOF optimises Output Fidelity (the paper's metric).
	MetricOF Metric = iota
	// MetricIC optimises Internal Completeness (the EDBT'14 baseline;
	// rate completeness that ignores input-stream correlation).
	MetricIC
)

// sortTaskIDs sorts task IDs ascending, used for deterministic output.
func sortTaskIDs(ids []topology.TaskID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
