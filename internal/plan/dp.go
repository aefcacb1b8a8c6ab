package plan

import (
	"errors"
	"fmt"

	"repro/internal/mctree"
	"repro/internal/par"
)

// ErrSearchSpace is returned by the dynamic programming planner when the
// candidate-plan set exceeds maxStates; the paper notes the
// algorithm's complexity is O(2^T) in the number of MC-trees and uses it
// only on moderately sized topologies (§VI-C skips DP for the random
// topologies for the same reason).
var ErrSearchSpace = errors.New("plan: dynamic programming search space exceeds cap")

// The dynamic programming planner's caps: MC-tree enumeration stops
// past maxTrees trees (mctree.ErrTooManyTrees), and the search past
// maxStates distinct candidate plans (ErrSearchSpace).
const (
	maxTrees  = 4096
	maxStates = 1 << 18
)

// DP implements Algorithm 1 (PLANCORRELATEDFAILURE): an optimal
// bottom-up search over unions of MC-trees. Resource usage is increased
// one task at a time; every candidate plan is expanded by the MC-trees
// whose number of non-replicated tasks exactly matches the available
// slack, and exhausted candidates are pruned. The best plan by
// worst-case OF (ties broken by smaller resource usage) is returned.
//
// Candidate expansion at each usage level fans out across a worker
// pool; the per-state expansions are merged in state order, so the
// search (including dedup and tie-breaking) is bit-identical to a
// sequential run.
type DP struct {
	// Workers sets the candidate-expansion parallelism: 0 uses
	// GOMAXPROCS, 1 runs sequentially. Results are bit-identical
	// regardless of the worker count.
	Workers int
}

// Name implements Planner.
func (DP) Name() string { return "dp" }

// Plan implements Planner.
func (d DP) Plan(c *Context, budget int) (Plan, error) {
	n := c.Topo.NumTasks()
	if budget > n {
		budget = n
	}
	trees, err := mctree.Enumerate(c.Topo, maxTrees)
	if err != nil {
		return Plan{}, fmt.Errorf("plan: enumerating MC-trees: %w", err)
	}

	empty := New(n)
	states := []Plan{empty}
	seen := map[string]bool{empty.Key(): true}

	best := empty.Clone()
	bestOF := c.OF(best)

	// expansion is one state's fate at a usage level: whether the state
	// survives into the next level, plus its new candidate plans in
	// tree order. Candidates carry their OF (computed in the worker) so
	// the sequential merge only deduplicates and selects.
	type candidate struct {
		p   Plan
		key string
		of  float64
	}
	type expansion struct {
		keep  bool
		cands []candidate
	}

	for usage := 1; usage <= budget; usage++ {
		exps := par.Map(len(states), d.Workers, func(i int) expansion {
			st := states[i]
			dif := usage - st.Size()
			if dif < 0 {
				return expansion{}
			}
			// Count each tree's non-replicated tasks once; the counts
			// serve both the pruning bound and the expansion filter.
			counts := make([]int, len(trees))
			maxNonrep := 0
			for ti, tr := range trees {
				nr := tr.NonReplicated(st.Vector())
				counts[ti] = nr
				if nr > maxNonrep {
					maxNonrep = nr
				}
			}
			if dif > maxNonrep {
				// All possible expansions of this candidate have been
				// considered; prune it (it stays a contender via best).
				return expansion{}
			}
			ex := expansion{keep: true}
			for ti, tr := range trees {
				if counts[ti] != dif {
					continue
				}
				np := st.Clone()
				np.AddAll(tr.MissingTasks(st.Vector()))
				ex.cands = append(ex.cands, candidate{p: np, key: np.Key(), of: c.OF(np)})
			}
			return ex
		})
		var next []Plan
		for i, ex := range exps {
			if !ex.keep {
				continue
			}
			next = append(next, states[i])
			for _, cd := range ex.cands {
				if seen[cd.key] {
					continue
				}
				seen[cd.key] = true
				if len(seen) > maxStates {
					return Plan{}, ErrSearchSpace
				}
				if cd.of > bestOF || (cd.of == bestOF && cd.p.Size() < best.Size()) {
					best = cd.p
					bestOF = cd.of
				}
				next = append(next, cd.p)
			}
		}
		states = next
	}
	return best, nil
}
