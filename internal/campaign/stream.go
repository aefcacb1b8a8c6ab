package campaign

import (
	"sync"

	"repro/internal/sketch"
)

// DefaultShards is the default number of reduction shards. The summary
// depends on the shard count (sketch state folds per shard), so it is
// part of a campaign's reproducibility key alongside the seed — but
// never on Workers.
const DefaultShards = 8

// SketchK is the accuracy parameter of the campaign summary sketches:
// quantiles in Summary are within sketch.RankError() (1% of the
// scenario count for the default 256) of the exact nearest-rank value,
// and exact outright for campaigns with at most SketchK samples per
// metric.
const SketchK = sketch.DefaultK

// delayPool recycles the per-scenario correction-delay buffers on the
// flat-memory path (KeepResults off): a buffer lives from runOne until
// the reducer has streamed its delays into the time-to-correction
// sketch, then returns to the pool.
var delayPool = sync.Pool{New: func() any { return new([]float64) }}

// entry is one in-flight scenario result awaiting in-order reduction.
type entry struct {
	res ScenarioResult
	// box, when non-nil, is the pooled backing of res.CorrectionDelays,
	// returned to delayPool after the reducer consumed the delays.
	box *[]float64
}

func (e *entry) release() {
	if e.box != nil {
		*e.box = e.res.CorrectionDelays[:0]
		delayPool.Put(e.box)
		e.box = nil
		e.res.CorrectionDelays = nil
	}
}

// streamer delivers scenario results to a consume function in strict
// scenario-index order, whatever order the workers finish in. A
// bounded reorder window applies backpressure: a worker that finished
// an index far ahead of the reduction frontier blocks until the
// frontier catches up, so buffered results — the only per-scenario
// state the campaign retains — stay O(workers), not O(scenarios).
// consume returns false to end the stream: the results it has not
// consumed yet are dropped, as on abort.
//
// Deadlock-freedom: the worker pool claims indices in ascending order,
// so the scenario at the frontier (next) is always already claimed by
// some worker; that worker's deliver never blocks (i == next bypasses
// the window check), and consuming it advances the frontier and wakes
// the blocked ones.
type streamer struct {
	mu      sync.Mutex
	cond    *sync.Cond
	next    int
	window  int
	pending map[int]entry
	aborted bool
	consume func(i int, e *entry) bool
}

func newStreamer(window int, consume func(int, *entry) bool) *streamer {
	st := &streamer{
		window:  window,
		pending: make(map[int]entry),
		consume: consume,
	}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// deliver hands the result of scenario i to the reducer. It blocks
// while i is more than window ahead of the reduction frontier. The
// consume callback runs under the streamer lock — serially, in index
// order.
func (st *streamer) deliver(i int, e entry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for !st.aborted && i != st.next && i-st.next >= st.window {
		st.cond.Wait()
	}
	if st.aborted {
		e.release()
		return
	}
	if i != st.next {
		st.pending[i] = e
		return
	}
	for {
		if !st.consume(st.next, &e) {
			st.abortLocked()
			return
		}
		st.next++
		ne, ok := st.pending[st.next]
		if !ok {
			break
		}
		delete(st.pending, st.next)
		e = ne
	}
	st.cond.Broadcast()
}

// abort releases every waiter and drops all buffered results; called
// on the first scenario error so the fail-fast campaign cannot wedge
// workers blocked on the reorder window.
func (st *streamer) abort() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.abortLocked()
}

func (st *streamer) abortLocked() {
	st.aborted = true
	for i, e := range st.pending {
		e.release()
		delete(st.pending, i)
	}
	st.cond.Broadcast()
}

// The summary metrics, indexed in ShardState (and Summary) field order.
// Metric m's sketch is seeded m+1 in every shard.
const (
	metricLatency = iota
	metricLoss
	metricFailedTasks
	metricTentative
	metricCorrected
	metricT2C
	numMetrics
)

// aggregator folds scenario results of one reduction shard into
// mergeable summary sketches — constant memory per shard, independent
// of the scenario count. An unweighted campaign (every scenario weight
// exactly 1, the historical default) fills the exact-count Sketches;
// an importance-sampled campaign (any scenario carrying a non-unit
// likelihood ratio) fills the Weighted summaries instead and
// additionally folds the exact moment counters behind the
// effective-sample-size estimate.
type aggregator struct {
	scenarios   int
	unrecovered int
	weighted    bool

	// One sketch per metric: s when unweighted, w when weighted.
	s [numMetrics]*sketch.Sketch
	w [numMetrics]*sketch.Weighted

	// Exact moment counters over (weight, OutputLoss), maintained on
	// the weighted path only and folded in shard order like everything
	// else: Σw, Σw², Σwx, Σwx², Σw²x, Σw²x². They determine both the
	// classic ESS (Σw)²/Σw² and the variance-ratio ESS reported in
	// Summary.ESS.
	sumW, sumW2, sumWX, sumWX2, sumW2X, sumW2X2 float64
}

// metricSketch is what both sketch kinds share: the summary readers
// and the binary codec.
type metricSketch interface {
	Count() uint64
	Mean() float64
	Quantile(q float64) float64
	Max() float64
	MarshalBinary() ([]byte, error)
	UnmarshalBinary([]byte) error
}

// newAggregator builds one shard accumulator. Every shard seeds each
// metric's sketch identically, so shard sketches merge into the same
// deterministic state regardless of which shard the merge starts from.
func newAggregator(weighted bool) *aggregator {
	a := &aggregator{weighted: weighted}
	for m := range a.s {
		if weighted {
			a.w[m] = sketch.NewSeededWeighted(SketchK, uint64(m+1))
		} else {
			a.s[m] = sketch.NewSeeded(SketchK, uint64(m+1))
		}
	}
	return a
}

// sketchOf returns the sketch of metric m.
func (a *aggregator) sketchOf(m int) metricSketch {
	if a.weighted {
		return a.w[m]
	}
	return a.s[m]
}

// scenariosWeighted reports whether any scenario carries a non-unit
// importance weight. Every process of a distributed campaign scans the
// full regenerated scenario list — never its own range — so all sides
// agree on the aggregation mode.
func scenariosWeighted(scs []Scenario) bool {
	for i := range scs {
		if w := scs[i].Weight; w != 0 && w != 1 {
			return true
		}
	}
	return false
}

// add folds one scenario result (same metric semantics as the old
// exact summarise: latency only over recovered scenarios that lost
// tasks, corrected fraction only over scenarios with tentative
// output, delays pooled across scenarios). On the weighted path every
// sample carries the scenario's likelihood ratio (zero, from
// hand-built scenarios, counts as 1).
func (a *aggregator) add(r *ScenarioResult) {
	a.scenarios++
	w := r.Scenario.Weight
	if w == 0 {
		w = 1
	}
	if a.weighted {
		x := r.OutputLoss
		a.sumW += w
		a.sumW2 += w * w
		a.sumWX += w * x
		a.sumWX2 += w * x * x
		a.sumW2X += w * w * x
		a.sumW2X2 += w * w * x * x
	}
	a.put(metricLoss, r.OutputLoss, w)
	a.put(metricFailedTasks, float64(r.FailedTasks), w)
	a.put(metricTentative, r.TentativeFrac, w)
	if r.TentativeFrac > 0 {
		a.put(metricCorrected, r.CorrectedFrac, w)
	}
	for _, d := range r.CorrectionDelays {
		a.put(metricT2C, d, w)
	}
	if !r.Recovered {
		a.unrecovered++
		return
	}
	if r.FailedTasks > 0 {
		a.put(metricLatency, float64(r.WorstLatency), w)
	}
}

// put adds one sample of metric m; the weight is ignored unweighted.
func (a *aggregator) put(m int, x, w float64) {
	if a.weighted {
		a.w[m].Add(x, w)
	} else {
		a.s[m].Add(x)
	}
}

// merge folds shard b into a (called in shard order).
func (a *aggregator) merge(b *aggregator) {
	a.scenarios += b.scenarios
	a.unrecovered += b.unrecovered
	a.sumW += b.sumW
	a.sumW2 += b.sumW2
	a.sumWX += b.sumWX
	a.sumWX2 += b.sumWX2
	a.sumW2X += b.sumW2X
	a.sumW2X2 += b.sumW2X2
	for m := range a.s {
		if a.weighted {
			a.w[m].Merge(b.w[m])
		} else {
			a.s[m].Merge(b.s[m])
		}
	}
}

// ess returns the campaign's effective sample size. For an unweighted
// campaign every scenario contributes one full sample: ESS = N. For an
// importance-sampled campaign it is the variance-ratio ESS of the
// self-normalised loss estimator — naive-Monte-Carlo variance over
// importance-sampling variance — i.e. the number of plain scenarios
// that would estimate the mean loss equally well. With
// Sw = Σw, μ = Σwx/Σw, A = Σw(x-μ)² and B = Σw²(x-μ)²:
// ESS = A·Sw/B (delta-method variance of the reweighted mean). A good
// tilt makes this EXCEED N — the whole point of tilting — where the
// classic (Σw)²/Σw² (the fallback when the loss is empirically
// constant, B = 0) can only reach N.
func (a *aggregator) ess() float64 {
	if !a.weighted {
		return float64(a.scenarios)
	}
	if a.sumW <= 0 {
		return 0
	}
	mu := a.sumWX / a.sumW
	varA := a.sumWX2 - 2*mu*a.sumWX + mu*mu*a.sumW
	varB := a.sumW2X2 - 2*mu*a.sumW2X + mu*mu*a.sumW2
	if varB <= 0 || varA <= 0 {
		return a.sumW * a.sumW / a.sumW2
	}
	return varA * a.sumW / varB
}

// summary renders the aggregator. Mean and Max of every distribution
// are exact; quantiles carry the sketch's rank-error bound and, on the
// weighted path, are taken against the reweighted (nominal)
// distribution.
func (a *aggregator) summary() Summary {
	s := Summary{
		Scenarios:   a.scenarios,
		Unrecovered: a.unrecovered,
		ESS:         a.ess(),
	}
	dists := [numMetrics]*Dist{&s.Latency, &s.Loss, &s.FailedTasks, &s.TentativeFrac, &s.CorrectedFrac, &s.TimeToCorrection}
	for m, d := range dists {
		if k := a.sketchOf(m); k.Count() > 0 {
			*d = Dist{Mean: k.Mean(), P50: k.Quantile(0.50), P95: k.Quantile(0.95), P99: k.Quantile(0.99), Max: k.Max()}
		}
	}
	return s
}
