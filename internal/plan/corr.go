package plan

import (
	"fmt"
	"sync"

	"repro/internal/par"
	"repro/internal/topology"
)

// This file implements the correlation-aware planning objective and the
// *-corr planner variants. The paper's planners optimise the worst-case
// Output Fidelity: every non-replicated task is assumed failed at once.
// Real correlated failures are narrower — a rack or zone burst kills the
// tasks placed under one shared component — so a plan can trade a little
// worst-case OF for much better expected OF under the failure
// distribution the cluster's rack layout actually produces (cf. the
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
// by CorrObjective and the *-corr planners, replacing any previous one.
// A nil set reverts CorrObjective to the worst-case OF.
func (c *Context) SetScenarios(s *ScenarioSet) error {
	if s != nil && s.n != c.Topo.NumTasks() {
		return fmt.Errorf("plan: scenario set for %d tasks installed on a %d-task topology", s.n, c.Topo.NumTasks())
	}
	c.corr = s
	return nil
}

// CorrObjective evaluates the correlation-aware objective of a plan:
// the expected Output Fidelity over the installed failure distribution,
// where a scenario fails exactly its non-replicated tasks (replicated
// tasks survive via their out-of-domain replicas). The distinct
// scenarios are evaluated on the internal/par worker pool at GOMAXPROCS
// (the one fan-out of the package; see Corr for what it buys) and
// folded in scenario order, so the value is deterministic at any worker
// count. Values are not memoized: the *-corr planners score their
// candidate plans incrementally instead (see Corr), so callers evaluate
// a plan once. Without a distribution it degrades to the worst-case OF.
func (c *Context) CorrObjective(p Plan) float64 {
	s := c.corr
	if s == nil || s.Len() == 0 {
		return c.OF(p)
	}
	ofs := c.whole.evalScenarios(s, p.replicated, 0).ofs
	return s.expect(func(i int) float64 { return ofs[i] })
}

// expect folds the per-scenario OFs of(i) into the expected OF, in
// scenario order. Every correlation-aware value goes through this one
// fold, so a delta-scored move and CorrObjective agree bit for bit.
func (s *ScenarioSet) expect(of func(i int) float64) float64 {
	var v float64
	for i, w := range s.weights {
		v += w * of(i)
	}
	return v
}

// corrBase is one plan evaluated under every distinct scenario of a
// distribution on the whole-topology scope: each scenario's per-task
// information-loss vector and its OF.
type corrBase struct {
	vecs [][]float64
	ofs  []float64
}

// evalScenarios evaluates the replicated set rep under every scenario
// of set on up to workers goroutines (0: GOMAXPROCS): in scenario i a
// task is alive unless the scenario fails it and rep does not replicate
// it. Each scenario has its own vector and alive set; the workers only
// read the scope.
func (s *Scope) evalScenarios(set *ScenarioSet, rep []bool, workers int) corrBase {
	n := len(rep)
	flat := make([]float64, set.Len()*n)
	alive := make([]bool, set.Len()*n)
	base := corrBase{vecs: make([][]float64, set.Len()), ofs: make([]float64, set.Len())}
	par.Each(set.Len(), workers, func(i int) {
		vec, al := flat[i*n:(i+1)*n:(i+1)*n], alive[i*n:(i+1)*n]
		for id, f := range set.failed[i] {
			al[id] = !f || rep[id]
		}
		s.compute(MetricOF, al, vec, s.tasks)
		base.vecs[i], base.ofs[i] = vec, s.objective(MetricOF, vec)
	})
	return base
}

// corrRounds caps the hill-climbing rounds of a Corr planner. Each
// round applies the single best add or 1-for-1 swap move.
const corrRounds = 8

// Corr is a correlation-aware planner variant: it seeds with the inner
// planner's plan (chosen under the paper's worst-case single-burst
// objective) and hill-climbs under CorrObjective — per round, every
// affordable add and every 1-for-1 swap of a replicated task for an
// unreplicated one is scored, and the best strictly improving move is
// applied; ties break towards the first move in enumeration order (adds
// before swaps, ascending task IDs), so the result is deterministic.
// Moves are scored incrementally against the current plan (see
// corrClimb), each value equal to CorrObjective of the moved plan. With
// no distribution installed on the context the refinement is skipped
// and the inner plan is returned unchanged (CorrObjective would equal
// the inner objective).
//
// The inner planner runs on the caller's goroutine. The climb — the
// per-scenario evaluation of the current plan, the per-task rescoring
// and the move scoring — fans out on the internal/par worker pool at
// GOMAXPROCS, and the plan is identical at any worker count. The
// fan-out pays: on a 2-vCPU Xeon (Go 1.24, BenchmarkCorrPlanPresets at
// -cpu 2, medians of 5 alternating runs) one worker instead of two
// takes medium sa-corr from 6.5 to 8.0 ms and large from 23.2 to
// 33.0 ms.
type Corr struct {
	Inner Planner
}

// Name implements Planner: the inner planner's name with a "-corr"
// suffix ("dp-corr", "structured-corr", ...).
func (p Corr) Name() string { return p.Inner.Name() + "-corr" }

// Plan implements Planner.
func (p Corr) Plan(c *Context, budget int) (Plan, error) { return p.plan(c, budget, 0) }

// plan is Plan with the climb on up to workers goroutines (0:
// GOMAXPROCS).
func (p Corr) plan(c *Context, budget, workers int) (Plan, error) {
	cur, err := p.Inner.Plan(c, budget)
	if err != nil {
		return Plan{}, err
	}
	set := c.corr
	if set == nil {
		return cur, nil
	}
	if n := c.Topo.NumTasks(); budget > n {
		budget = n
	}
	cl := newCorrClimb(c.whole, set, workers)
	for round := 0; round < corrRounds; round++ {
		moves := corrMoves(cur, budget)
		if len(moves) == 0 {
			break
		}
		best, vals := cl.score(cur, moves)
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

// corrMove is one hill-climbing move: replicate add and, unless del is
// noTask, stop replicating del.
type corrMove struct {
	add, del topology.TaskID
}

const noTask = topology.TaskID(-1)

// corrMoves enumerates the moves from cur in the climb's tie-break
// order: every pure add while cur is under budget, then every 1-for-1
// swap, by ascending removed and then added task ID.
func corrMoves(cur Plan, budget int) []corrMove {
	var ins, outs []topology.TaskID
	for id := range cur.replicated {
		if cur.Has(topology.TaskID(id)) {
			outs = append(outs, topology.TaskID(id))
		} else {
			ins = append(ins, topology.TaskID(id))
		}
	}
	var moves []corrMove
	if cur.Size() < budget {
		for _, in := range ins {
			moves = append(moves, corrMove{add: in, del: noTask})
		}
	}
	for _, out := range outs {
		for _, in := range ins {
			moves = append(moves, corrMove{add: in, del: out})
		}
	}
	return moves
}

// corrClimb scores hill-climbing moves by their delta to the current
// plan. A move changes a task's liveness only in the scenarios that
// fail it (elsewhere the task is alive with or without a replica), and
// there only the task's in-scope downstream cone can change. So each
// round evaluates the current plan once per scenario, then rescores
// every task's flip on the cached vectors of the scenarios that fail
// it; a move's per-scenario OF is then the base, a flip, or — where a
// swap's scenario fails both tasks — one rescoring of both cones. Every
// value is bit-identical to CorrObjective of the moved plan: an
// unchanged alive set gives the same vector, cones recomputed in
// topological order on the base vector give the same vector as a full
// pass (Scope.Extend relies on the same fact), and the OFs are folded
// by the same expect.
//
// The climb's workers read the scope, the base vectors and the flip
// table, and write only their own slots and the evaluation buffers they
// draw from bufs.
type corrClimb struct {
	w       *Scope // the whole-topology scope
	set     *ScenarioSet
	workers int
	// cones[t] is task t and every task downstream of it, in scope
	// topological order.
	cones [][]topology.TaskID
	bufs  sync.Pool // *evalBuf
}

// evalBuf is one worker's evaluation buffers, indexed by TaskID: a
// propagation vector and an alive set.
type evalBuf struct {
	vec   []float64
	alive []bool
}

func newCorrClimb(w *Scope, set *ScenarioSet, workers int) *corrClimb {
	cl := &corrClimb{w: w, set: set, workers: workers, cones: make([][]topology.TaskID, set.n)}
	for t := range cl.cones {
		cl.cones[t] = w.downstream([]topology.TaskID{topology.TaskID(t)})
	}
	cl.bufs.New = func() any { return &evalBuf{vec: make([]float64, set.n), alive: make([]bool, set.n)} }
	return cl
}

// score returns CorrObjective(cur) and, for every move, CorrObjective
// of cur with the move applied.
func (cl *corrClimb) score(cur Plan, moves []corrMove) (float64, []float64) {
	set, w, rep := cl.set, cl.w, cur.replicated
	base := w.evalScenarios(set, rep, cl.workers)
	// flips[t] holds each scenario's OF with task t's liveness flipped
	// from cur: made alive if cur leaves it unreplicated, failed if cur
	// replicates it. It is a pure add's per-scenario OFs, and a swap's
	// in the scenarios that fail only one of its two tasks.
	flips := par.Map(set.n, cl.workers, func(t int) []float64 {
		ofs := append([]float64(nil), base.ofs...)
		b := cl.bufs.Get().(*evalBuf)
		for i, f := range set.failed {
			if f[t] {
				ofs[i] = cl.rescore(b, base, rep, i, topology.TaskID(t), noTask)
			}
		}
		cl.bufs.Put(b)
		return ofs
	})
	vals := par.Map(len(moves), cl.workers, func(k int) float64 {
		a, d := moves[k].add, moves[k].del
		if d == noTask {
			return set.expect(func(i int) float64 { return flips[a][i] })
		}
		var b *evalBuf
		v := set.expect(func(i int) float64 {
			switch f := set.failed[i]; {
			case f[a] && f[d]:
				if b == nil {
					b = cl.bufs.Get().(*evalBuf)
				}
				return cl.rescore(b, base, rep, i, a, d)
			case f[a]:
				return flips[a][i]
			case f[d]:
				return flips[d][i]
			}
			return base.ofs[i]
		})
		if b != nil {
			cl.bufs.Put(b)
		}
		return v
	})
	return set.expect(func(i int) float64 { return base.ofs[i] }), vals
}

// rescore returns scenario i's OF after tasks a and d (d may be noTask),
// which the scenario fails, flip liveness from the plan rep. On a copy
// of the scenario's base vector it recomputes only the tasks' cones,
// a's and then d's: a task below a but not below d has no input below
// d, so it is final after a's pass, and d's pass then recomputes every
// task below d from final inputs.
func (cl *corrClimb) rescore(b *evalBuf, base corrBase, rep []bool, i int, a, d topology.TaskID) float64 {
	f, w := cl.set.failed[i], cl.w
	copy(b.vec, base.vecs[i])
	cones := [2][]topology.TaskID{cl.cones[a]}
	if d != noTask {
		cones[1] = cl.cones[d]
	}
	for _, cone := range cones {
		for _, id := range cone {
			b.alive[id] = (!f[id] || rep[id]) != (id == a || id == d)
		}
	}
	for _, cone := range cones {
		w.compute(MetricOF, b.alive, b.vec, cone)
	}
	return w.objective(MetricOF, b.vec)
}
