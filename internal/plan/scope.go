package plan

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/topology"
)

// Scope is a precomputed evaluation scope: a sub-topology (set of
// operators) together with everything the scoped objective evaluation
// needs — the in-scope task order, the scope's sink tasks and their
// total failure-free output rate, the failure-free input rates and the
// in-scope downstream adjacency used for incremental re-evaluation.
// Scopes are created by Context.ScopeOf and shared by the planners on
// the context's goroutine; a Scope serves one goroutine.
//
// Within the scope a task is alive when the evaluated set holds it —
// for a plan, when it is replicated — and failed otherwise; tasks
// outside the scope are alive. Output Fidelity is measured at the
// scope's own sink tasks (operators without a downstream operator
// inside the scope), treating the scope as a standalone topology, so
// segment selection in different sub-topologies stays independent
// (§IV-C3). The whole-topology scope is the model of §III itself: its
// OF is Eq. 4 and its IC the EDBT'14 baseline.
//
// Each scope memoizes its objective values per metric, keyed on
// Plan.Key. For each metric it also caches the per-task propagation
// vector of the most recent "base" plan evaluated through Extend, so
// that probing base ∪ {ids} — the inner loop of every sub-topology
// planner — recomputes only the tasks downstream of the added ones
// instead of re-traversing the whole scope.
type Scope struct {
	c   *Context
	ops []int

	opIn   []bool            // by operator
	taskIn []bool            // by task
	tasks  []topology.TaskID // in-scope tasks in operator-topological order
	sinks  []topology.TaskID // tasks of scope sink operators
	// totalOut is the failure-free output rate of the scope sinks (the
	// OF normalisation constant).
	totalOut float64
	// normalIn[id] is the failure-free input rate of in-scope task id
	// (its emitted rate for a source); normal sums them (the IC
	// normalisation constant).
	normalIn []float64
	normal   float64
	// down[id] lists the in-scope tasks directly downstream of task id.
	down [][]topology.TaskID

	// scratch is the propagation vector of eval and Extend.
	scratch []float64
	memo    [2]map[string]float64 // indexed by Metric; a nil map memoizes nothing
	base    [2]scopedBase         // indexed by Metric
}

// scopedBase is the per-task propagation vector (OF: information loss;
// IC: throughput fraction) of the plan with the given key; no plan of a
// topology with tasks has the empty key.
type scopedBase struct {
	key string
	vec []float64
}

// scopeSig returns the canonical identity of an operator set.
func scopeSig(ops []int) string {
	sorted := append([]int(nil), ops...)
	sort.Ints(sorted)
	var b strings.Builder
	for i, op := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(op))
	}
	return b.String()
}

func newScope(c *Context, ops []int) *Scope {
	t := c.Topo
	n := t.NumTasks()
	s := &Scope{
		c:        c,
		ops:      append([]int(nil), ops...),
		opIn:     make([]bool, t.NumOps()),
		taskIn:   make([]bool, n),
		normalIn: make([]float64, n),
		down:     make([][]topology.TaskID, n),
		scratch:  make([]float64, n),
		memo:     [2]map[string]float64{{}, {}},
		base:     [2]scopedBase{{vec: make([]float64, n)}, {vec: make([]float64, n)}},
	}
	for _, op := range s.ops {
		s.opIn[op] = true
	}
	for _, op := range t.OpOrder() {
		if !s.opIn[op] {
			continue
		}
		for _, id := range t.TasksOf(op) {
			s.taskIn[id] = true
			s.tasks = append(s.tasks, id)
		}
	}
	for _, op := range s.ops {
		hasDown := false
		for _, d := range t.DownstreamOps(op) {
			if s.opIn[d] {
				hasDown = true
				break
			}
		}
		if hasDown {
			continue
		}
		for _, id := range t.TasksOf(op) {
			s.sinks = append(s.sinks, id)
			s.totalOut += t.OutRate(id)
		}
	}
	for _, id := range s.tasks {
		ins := t.InputsOf(id)
		if len(ins) == 0 {
			s.normalIn[id] = t.OutRate(id)
		}
		for _, in := range ins {
			s.normalIn[id] += in.Rate()
		}
		s.normal += s.normalIn[id]
		for _, out := range t.OutputsOf(id) {
			if s.taskIn[out.To] {
				s.down[id] = append(s.down[id], out.To)
			}
		}
	}
	return s
}

func (s *Scope) memoPut(m Metric, key string, v float64) {
	if cache := s.memo[m]; cache != nil && len(cache) < maxMemoEntries {
		cache[key] = v
	}
}

// Ops returns the scope's operator set.
func (s *Scope) Ops() []int { return s.ops }

// Eval computes the scoped objective of a plan, memoized on the plan
// key.
func (s *Scope) Eval(m Metric, p Plan) float64 {
	key := p.Key()
	if v, ok := s.memo[m][key]; ok {
		return v
	}
	v := s.eval(m, p.replicated)
	s.memoPut(m, key, v)
	return v
}

// eval computes the scoped objective of an alive set in full on the
// scratch vector, bypassing the memo (used by the memo miss path, by
// brute force, whose 2^N distinct plans would only pollute it, and by
// the single-failure vector).
func (s *Scope) eval(m Metric, alive []bool) float64 {
	s.compute(m, alive, s.scratch, s.tasks)
	return s.objective(m, s.scratch)
}

// EvalBase computes the scoped objective of a plan that is about to
// serve as the base of Extend probes. Unlike Eval it always goes
// through the base-vector cache, so the traversal that produces the
// scalar is the same one the subsequent Extend calls reuse.
func (s *Scope) EvalBase(m Metric, p Plan) float64 {
	v := s.objective(m, s.baseVector(m, p))
	s.memoPut(m, p.Key(), v)
	return v
}

// Extend computes the scoped objective of base ∪ ids. The base plan's
// propagation vector is cached per metric; on a cache hit only the
// tasks downstream of ids are recomputed, so growing a candidate by one
// task costs a local update instead of a whole-scope traversal. The
// result is bit-identical to a full evaluation of the extended plan.
func (s *Scope) Extend(m Metric, base Plan, ids []topology.TaskID) float64 {
	probe := base.Clone()
	probe.AddAll(ids)
	key := probe.Key()
	if v, ok := s.memo[m][key]; ok {
		return v
	}
	copy(s.scratch, s.baseVector(m, base))
	s.compute(m, probe.replicated, s.scratch, s.downstream(ids))
	v := s.objective(m, s.scratch)
	s.memoPut(m, key, v)
	return v
}

// downstream returns the in-scope tasks among ids and every in-scope
// task downstream of them, in scope topological order: the tasks whose
// propagation entries can change when ids change liveness.
func (s *Scope) downstream(ids []topology.TaskID) []topology.TaskID {
	dirty := make([]bool, s.c.Topo.NumTasks())
	nDirty := 0
	queue := make([]topology.TaskID, 0, len(ids))
	for _, id := range ids {
		if s.taskIn[id] && !dirty[id] {
			dirty[id] = true
			nDirty++
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, d := range s.down[id] {
			if !dirty[d] {
				dirty[d] = true
				nDirty++
				queue = append(queue, d)
			}
		}
	}
	order := make([]topology.TaskID, 0, nDirty)
	for _, id := range s.tasks {
		if dirty[id] {
			order = append(order, id)
		}
	}
	return order
}

// baseVector returns the cached propagation vector of the base plan,
// recomputing it in place on mismatch. The returned slice is the cache
// itself: callers must copy before mutating, and it is overwritten by
// the metric's next base.
func (s *Scope) baseVector(m Metric, base Plan) []float64 {
	b := &s.base[m]
	if key := base.Key(); b.key != key {
		s.compute(m, base.replicated, b.vec, s.tasks)
		b.key = key
	}
	return b.vec
}

// compute fills vec for the given in-scope tasks (which must be in
// scope topological order) under the alive set. Entries for tasks
// outside the listed set are read as-is, so passing a dirty subset on
// top of a base vector yields an incremental update.
func (s *Scope) compute(m Metric, alive []bool, vec []float64, order []topology.TaskID) {
	if m == MetricIC {
		for _, id := range order {
			vec[id] = s.fracIC(alive, id, vec)
		}
		return
	}
	for _, id := range order {
		vec[id] = s.lossOF(alive, id, vec)
	}
}

// objective folds a propagation vector into the scoped metric value:
// Eq. 4 for OF — the failure-free-rate-weighted complement of the scope
// sinks' output losses — and, for IC, the processed fraction of the
// scope's failure-free input.
func (s *Scope) objective(m Metric, vec []float64) float64 {
	if m == MetricIC {
		if s.normal == 0 {
			return 0
		}
		var processed float64
		for _, id := range s.tasks {
			processed += s.normalIn[id] * vec[id]
		}
		return clamp01(processed / s.normal)
	}
	if s.totalOut == 0 {
		return 0
	}
	t := s.c.Topo
	var lost float64
	for _, id := range s.sinks {
		lost += t.OutRate(id) * vec[id]
	}
	return clamp01(1 - lost/s.totalOut)
}

// lossOF computes the information loss ILout of one in-scope task from
// the upstream entries of vec: a failed task loses everything, a
// scope-local source nothing; otherwise the loss of each in-scope input
// stream is the rate-weighted loss of its substreams (Eq. 1), and a
// correlated-input operator (a join) loses 1 - prod_j (1 - ILin_j)
// (Eq. 2) while an independent-input one loses the rate-weighted mean
// of its input losses (Eq. 3).
func (s *Scope) lossOF(alive []bool, id topology.TaskID, vec []float64) float64 {
	if !alive[id] {
		return 1
	}
	t := s.c.Topo
	correlated := t.Ops[t.Tasks[id].Op].Kind == topology.Correlated
	prod, num, den := 1.0, 0.0, 0.0
	seen := false
	for _, in := range t.InputsOf(id) {
		if !s.opIn[in.FromOp] {
			continue // an out-of-scope upstream loses nothing
		}
		seen = true
		var lost, rate float64
		for _, sub := range in.Subs {
			lost += sub.Rate * vec[sub.From]
			rate += sub.Rate
		}
		loss := 1.0
		if rate != 0 {
			loss = lost / rate
		}
		if correlated {
			prod *= 1 - loss
		} else {
			num += rate * loss
			den += rate
		}
	}
	if !seen {
		return 0 // scope-local source
	}
	if correlated {
		return 1 - prod
	}
	if den == 0 {
		return 1
	}
	return num / den
}

// fracIC computes the throughput fraction of one in-scope task from the
// upstream entries of vec. Unlike lossOF it considers all input
// streams and ignores their correlation: out-of-scope upstreams are
// alive and contribute their full rate (fraction 1), and a join is
// credited for the input it still receives even when another of its
// inputs is lost — the defect of IC that §VI-B exposes.
func (s *Scope) fracIC(alive []bool, id topology.TaskID, vec []float64) float64 {
	t := s.c.Topo
	if !alive[id] {
		return 0
	}
	ins := t.InputsOf(id)
	if len(ins) == 0 {
		return 1
	}
	var recv, full float64
	for _, in := range ins {
		for _, sub := range in.Subs {
			full += sub.Rate
			f := 1.0
			if s.taskIn[sub.From] {
				f = vec[sub.From]
			}
			recv += sub.Rate * f
		}
	}
	if full == 0 {
		return 0
	}
	return recv / full
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// allOps returns [0, NumOps) for planning over a whole topology.
func allOps(t *topology.Topology) []int {
	ops := make([]int, t.NumOps())
	for i := range ops {
		ops[i] = i
	}
	return ops
}
