package plan

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/topology"
)

// This file implements the correlation-aware planning objective and the
// *-corr planner variants. The paper's planners optimise the worst-case
// Output Fidelity: every non-replicated task is assumed failed at once.
// Real correlated failures are narrower — a rack or zone burst kills the
// tasks placed under one shared component — so a plan can trade a little
// worst-case OF for much better expected OF under the failure
// distribution the cluster's domain tree actually produces (cf. the
// approximate fault-tolerance trade-off of Cheng et al.,
// arXiv:1811.04570). A ScenarioSet carries that distribution as sampled
// task-failure sets (typically produced by campaign.Env.CorrelationSet
// from the burst models); CorrObjective is the expected OF of a plan
// under it, with replicated tasks surviving — the assumption the
// cluster's anti-affinity replica placement makes valid, since a replica
// never shares its primary's rack.

// ScenarioSet is a domain-correlated failure distribution over task
// sets: each scenario is one set of primary tasks failing together, with
// a probability weight. Identical scenarios are deduplicated at
// construction with their weights accumulated — burst models like
// whole-domain outages produce few distinct task sets, so evaluation
// cost scales with the distinct bursts, not the sample count. A
// ScenarioSet is immutable and safe for concurrent use.
type ScenarioSet struct {
	n       int
	failed  [][]bool  // distinct failure vectors, in first-seen order
	weights []float64 // per distinct scenario, summing to 1
}

// NewScenarioSet builds the distribution from equally likely sampled
// task sets for a topology with n tasks. Task IDs outside [0, n) are
// rejected.
func NewScenarioSet(n int, sets [][]topology.TaskID) (*ScenarioSet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("plan: scenario set needs a positive task count, got %d", n)
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("plan: scenario set needs at least one scenario")
	}
	s := &ScenarioSet{n: n}
	index := map[string]int{}
	w := 1 / float64(len(sets))
	for _, set := range sets {
		vec := make([]bool, n)
		for _, id := range set {
			if int(id) < 0 || int(id) >= n {
				return nil, fmt.Errorf("plan: scenario task %d outside topology of %d tasks", id, n)
			}
			vec[id] = true
		}
		key := boolKey(vec)
		if i, ok := index[key]; ok {
			s.weights[i] += w
			continue
		}
		index[key] = len(s.failed)
		s.failed = append(s.failed, vec)
		s.weights = append(s.weights, w)
	}
	return s, nil
}

// Len returns the number of distinct scenarios.
func (s *ScenarioSet) Len() int { return len(s.failed) }

// NumTasks returns the topology size the distribution was built for.
func (s *ScenarioSet) NumTasks() int { return s.n }

// boolKey packs a bool vector into a compact string — the shared
// encoding behind Plan.Key and ScenarioSet dedup.
func boolKey(v []bool) string {
	b := make([]byte, (len(v)+7)/8)
	for i, x := range v {
		if x {
			b[i/8] |= 1 << (i % 8)
		}
	}
	return string(b)
}

// SetScenarios installs the domain-correlated failure distribution used
// by CorrObjective and the *-corr planners, replacing any previous one
// and invalidating the correlation memo. A nil set reverts
// CorrObjective to the worst-case OF.
func (c *Context) SetScenarios(s *ScenarioSet) error {
	if s != nil && s.n != c.Topo.NumTasks() {
		return fmt.Errorf("plan: scenario set for %d tasks installed on a %d-task topology", s.n, c.Topo.NumTasks())
	}
	c.mu.Lock()
	c.corr = s
	c.corrMemo = map[string]float64{}
	c.mu.Unlock()
	return nil
}

// Scenarios returns the installed failure distribution, or nil.
func (c *Context) Scenarios() *ScenarioSet {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.corr
}

// CorrObjective evaluates the correlation-aware objective of a plan:
// the expected Output Fidelity over the installed failure distribution,
// where a scenario fails exactly its non-replicated tasks (replicated
// tasks survive via their out-of-domain replicas). Values are memoized
// per plan key like the other objectives; the distinct scenarios of a
// memo miss are evaluated on the shared internal/par worker pool and
// folded in scenario order, so the value is deterministic at any worker
// count. Without a distribution it degrades to the worst-case OF.
func (c *Context) CorrObjective(p Plan) float64 {
	c.mu.Lock()
	s := c.corr
	c.mu.Unlock()
	if s == nil || s.Len() == 0 {
		return c.OF(p)
	}
	key := p.Key()
	c.mu.Lock()
	if c.memo {
		if v, ok := c.corrMemo[key]; ok {
			c.mu.Unlock()
			return v
		}
	}
	c.mu.Unlock()
	v := c.evalCorr(s, p)
	c.mu.Lock()
	// Only memoize if the distribution is still the one the value was
	// computed under — a concurrent SetScenarios swaps both the
	// distribution and the memo, and a stale value must not leak into
	// the fresh cache.
	if c.memo && c.corr == s && len(c.corrMemo) < maxMemoEntries {
		c.corrMemo[key] = v
	}
	c.mu.Unlock()
	return v
}

// evalCorr folds the distribution's scenarios in scenario order. Each
// scenario is the whole-topology OF of its alive set: a task is alive
// unless the scenario fails it and the plan does not replicate it.
func (c *Context) evalCorr(s *ScenarioSet, p Plan) float64 {
	ofs := par.Map(s.Len(), 0, func(i int) float64 {
		return c.whole.evalFailed(s.failed[i], p.replicated)
	})
	var v float64
	for i, of := range ofs {
		v += s.weights[i] * of
	}
	return v
}

// corrRounds caps the hill-climbing rounds of a Corr planner. Each
// round applies the single best add or 1-for-1 swap move.
const corrRounds = 8

// Corr is a correlation-aware planner variant: it seeds with the inner
// planner's plan (chosen under the paper's worst-case single-burst
// objective) and hill-climbs under CorrObjective — per round, every
// affordable add and every 1-for-1 swap of a replicated task for an
// unreplicated one is scored on the worker pool, and the best strictly
// improving move is applied; ties break towards the first move in
// enumeration order (adds before swaps, ascending task IDs), so the
// result is deterministic. With no distribution installed on the
// context the refinement is skipped and the inner plan is returned
// unchanged (CorrObjective would equal the inner objective).
type Corr struct {
	Inner Planner
	// Workers sets the move-evaluation parallelism: 0 uses GOMAXPROCS,
	// 1 runs sequentially. Results are identical at any worker count.
	Workers int
}

// Name implements Planner: the inner planner's name with a "-corr"
// suffix ("dp-corr", "structured-corr", ...).
func (p Corr) Name() string { return p.Inner.Name() + "-corr" }

// Plan implements Planner.
func (p Corr) Plan(c *Context, budget int) (Plan, error) {
	cur, err := p.Inner.Plan(c, budget)
	if err != nil {
		return Plan{}, err
	}
	if c.Scenarios() == nil {
		return cur, nil
	}
	n := c.Topo.NumTasks()
	if budget > n {
		budget = n
	}
	best := c.CorrObjective(cur)
	type move struct {
		add topology.TaskID
		del topology.TaskID // noTask for a pure add
	}
	const noTask = topology.TaskID(-1)
	for round := 0; round < corrRounds; round++ {
		var ins, outs []topology.TaskID
		for id := 0; id < n; id++ {
			if cur.Has(topology.TaskID(id)) {
				outs = append(outs, topology.TaskID(id))
			} else {
				ins = append(ins, topology.TaskID(id))
			}
		}
		var moves []move
		if cur.Size() < budget {
			for _, in := range ins {
				moves = append(moves, move{add: in, del: noTask})
			}
		}
		for _, out := range outs {
			for _, in := range ins {
				moves = append(moves, move{add: in, del: out})
			}
		}
		if len(moves) == 0 {
			break
		}
		vals := par.Map(len(moves), p.Workers, func(i int) float64 {
			probe := cur.Clone()
			if moves[i].del != noTask {
				probe.Remove(moves[i].del)
			}
			probe.Add(moves[i].add)
			return c.CorrObjective(probe)
		})
		bestMove := -1
		for i, v := range vals {
			if v > best {
				best = v
				bestMove = i
			}
		}
		if bestMove < 0 {
			break
		}
		if moves[bestMove].del != noTask {
			cur.Remove(moves[bestMove].del)
		}
		cur.Add(moves[bestMove].add)
	}
	return cur, nil
}
