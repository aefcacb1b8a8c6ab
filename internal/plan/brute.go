package plan

import (
	"errors"
	"math/bits"

	"repro/internal/topology"
)

// ErrTooLarge is returned by the brute-force planner when the topology
// exceeds the feasible exhaustive-search size.
var ErrTooLarge = errors.New("plan: topology too large for brute-force search")

// Brute exhaustively searches every subset of at most budget tasks and
// returns a plan with the maximal worst-case OF (ties broken by smaller
// size, then by first occurrence in ascending-bitmask order, matching
// the DP planner's keep-first convention). It exists as the ground-truth
// reference for testing the optimality of the dynamic programming
// algorithm and is limited to topologies with at most 24 tasks.
type Brute struct{}

// Name implements Planner.
func (Brute) Name() string { return "brute" }

// Plan implements Planner.
func (Brute) Plan(c *Context, budget int) (Plan, error) {
	n := c.Topo.NumTasks()
	if n > 24 {
		return Plan{}, ErrTooLarge
	}
	if budget > n {
		budget = n
	}
	best := New(n)
	// Evaluate directly: the 2^N distinct plans of the exhaustive sweep
	// are each seen once, so memoizing them would only burn memory.
	bestOF := c.whole.eval(MetricOF, best.replicated)
	for mask := uint32(0); mask < 1<<n; mask++ {
		if bits.OnesCount32(mask) > budget {
			continue
		}
		p := New(n)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				p.Add(topology.TaskID(i))
			}
		}
		of := c.whole.eval(MetricOF, p.replicated)
		if of > bestOF || (of == bestOF && p.Size() < best.Size()) {
			best = p
			bestOF = of
		}
	}
	return best, nil
}
