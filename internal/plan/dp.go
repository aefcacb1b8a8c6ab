package plan

import (
	"errors"
	"fmt"

	"repro/internal/mctree"
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
type DP struct{}

// Name implements Planner.
func (DP) Name() string { return "dp" }

// Plan implements Planner.
func (DP) Plan(c *Context, budget int) (Plan, error) {
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

	// counts[ti] is tree ti's number of tasks the state being expanded
	// does not replicate; it serves both the pruning bound and the
	// expansion filter.
	counts := make([]int, len(trees))
	for usage := 1; usage <= budget; usage++ {
		var next []Plan
		for _, st := range states {
			dif := usage - st.Size()
			if dif < 0 {
				continue
			}
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
				continue
			}
			next = append(next, st)
			for ti, tr := range trees {
				if counts[ti] != dif {
					continue
				}
				np := st.Clone()
				np.AddAll(tr.MissingTasks(st.Vector()))
				key := np.Key()
				if seen[key] {
					continue
				}
				seen[key] = true
				if len(seen) > maxStates {
					return Plan{}, ErrSearchSpace
				}
				if of := c.OF(np); of > bestOF || (of == bestOF && np.Size() < best.Size()) {
					best = np
					bestOF = of
				}
				next = append(next, np)
			}
		}
		states = next
	}
	return best, nil
}
