package campaign

import (
	"fmt"
	"math"

	"repro/internal/sketch"
)

// CI-driven early stopping. A campaign with Config.StopTol > 0 halts
// once the 95% confidence interval of its p95 output-loss estimate is
// tighter than the tolerance. The stop rule is deterministic and
// replay-independent: it is evaluated only at shard-block boundaries
// (the campaign's fixed scenario-count checkpoints), over the merged
// reduction state of the completed shard prefix 0..j, and fires at the
// smallest such j. The single-process reducer observes each block as
// it closes it, in order; the distributed coordinator feeds the monitor
// shard states as its contiguous completed-range frontier advances —
// both walk the same prefix sequence over the same serialised states,
// so they stop at the same scenario and produce bit-identical
// summaries. Workers never evaluate the rule (a range sees only its
// own slice of the prefix); stop decisions are owned by whoever
// merges.

// stopZ is the two-sided 95% normal quantile of the stop rule's
// interval; the confidence level is fixed so the rule stays part of
// the campaign's reproducibility contract rather than a tunable.
const stopZ = 1.9599639845400545

// stopMinSamples is the fewest scenarios a prefix needs before the
// rule is evaluated, guarding against a lucky tiny prefix stopping a
// campaign its later scenarios would have widened.
const stopMinSamples = 64

// quantileCIHalfWidth returns the half-width of the distribution-free
// 95% confidence interval for quantile q given neff effective samples:
// the quantile function evaluated at q ± z·sqrt(q(1-q)/neff), halved.
// +Inf when the interval's rank bounds fall outside (0, 1) — too few
// samples to bound the quantile at all.
func quantileCIHalfWidth(quantile func(float64) float64, q, neff float64) float64 {
	if neff <= 0 {
		return math.Inf(1)
	}
	d := stopZ * math.Sqrt(q*(1-q)/neff)
	if q-d <= 0 || q+d >= 1 {
		return math.Inf(1)
	}
	return (quantile(q+d) - quantile(q-d)) / 2
}

// StopMonitor evaluates the early-stop rule over a campaign's shard
// states, observed in shard order. The coordinator of a distributed
// campaign and the single-process runner both feed it the same
// serialised per-shard reduction states, so both arrive at the same
// decision. Construct with NewStopMonitor.
type StopMonitor struct {
	tol      float64
	blocks   int // total shard blocks of the campaign
	weighted bool

	next      int // next expected shard index
	scenarios int // scenarios covered by the observed prefix
	loss      *sketch.Sketch
	wloss     *sketch.Weighted

	fired     bool
	stopShard int
	lastHW    float64
}

// NewStopMonitor builds the monitor for cfg, or returns nil when the
// config does not ask for early stopping (StopTol <= 0) — a nil
// monitor is the "never stops" monitor.
func NewStopMonitor(cfg Config) *StopMonitor {
	if cfg.StopTol <= 0 {
		return nil
	}
	cfg = cfg.resolved()
	n := len(cfg.Scenarios)
	block := blockSize(n, cfg.Shards)
	m := &StopMonitor{
		tol:       cfg.StopTol,
		blocks:    (n + block - 1) / block,
		weighted:  scenariosWeighted(cfg.Scenarios),
		stopShard: -1,
		lastHW:    math.Inf(1),
	}
	if m.weighted {
		m.wloss = sketch.NewSeededWeighted(SketchK, metricLoss+1)
	} else {
		m.loss = sketch.NewSeeded(SketchK, metricLoss+1)
	}
	return m
}

// Observe folds the next shard's state into the monitored prefix and
// evaluates the stop rule at the new boundary. States must arrive in
// shard order with no gaps; after the monitor fired, further states
// are rejected (the campaign should not have run them).
func (m *StopMonitor) Observe(st ShardState) error {
	if m.fired {
		return fmt.Errorf("campaign: shard %d observed after the stop rule fired at shard %d", st.Shard, m.stopShard)
	}
	if st.Shard != m.next {
		return fmt.Errorf("campaign: stop monitor needs shard %d next, got %d", m.next, st.Shard)
	}
	if st.Weighted != m.weighted {
		return fmt.Errorf("campaign: shard %d weighted=%v, monitor expects %v", st.Shard, st.Weighted, m.weighted)
	}
	var neff float64
	var quant func(float64) float64
	if m.weighted {
		var s sketch.Weighted
		if err := s.UnmarshalBinary(st.Loss); err != nil {
			return fmt.Errorf("campaign: stop monitor decoding shard %d loss: %w", st.Shard, err)
		}
		m.wloss.Merge(&s)
		// The classic ESS (Σw)²/Σw² is the conservative effective count
		// for interval width: it never exceeds the scenario count, so a
		// weighted campaign stops no earlier than its weights justify.
		if w2 := m.wloss.SumW2(); w2 > 0 {
			neff = m.wloss.SumW() * m.wloss.SumW() / w2
		}
		quant = m.wloss.Quantile
	} else {
		var s sketch.Sketch
		if err := s.UnmarshalBinary(st.Loss); err != nil {
			return fmt.Errorf("campaign: stop monitor decoding shard %d loss: %w", st.Shard, err)
		}
		m.loss.Merge(&s)
		neff = float64(m.loss.Count())
		quant = m.loss.Quantile
	}
	m.next++
	m.scenarios += st.Scenarios
	// The last block completes the campaign anyway; evaluating there
	// would label an exhausted run as stopped.
	if m.next >= m.blocks || m.scenarios < stopMinSamples {
		return nil
	}
	m.lastHW = quantileCIHalfWidth(quant, 0.95, neff)
	if m.lastHW <= m.tol {
		m.fired = true
		m.stopShard = m.next - 1
	}
	return nil
}

// Fired reports whether the stop rule has fired. Nil-safe: a nil
// monitor never fires.
func (m *StopMonitor) Fired() bool { return m != nil && m.fired }

// StopShard returns the last shard included in the stopped prefix, or
// -1 when the rule has not fired.
func (m *StopMonitor) StopShard() int {
	if m == nil {
		return -1
	}
	return m.stopShard
}

// PrefixScenarios returns the number of scenarios covered by the
// observed prefix — the scenario count a stopped campaign's summary
// must report. Nil-safe.
func (m *StopMonitor) PrefixScenarios() int {
	if m == nil {
		return 0
	}
	return m.scenarios
}

// HalfWidth returns the p95-loss CI half-width at the last evaluated
// checkpoint (+Inf before the first evaluation). Nil-safe.
func (m *StopMonitor) HalfWidth() float64 {
	if m == nil {
		return math.Inf(1)
	}
	return m.lastHW
}
