package campaign

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/par"
)

// Distributed campaigns. Config.Shards cuts the scenario index space
// into contiguous blocks of blockSize(N, Shards) scenarios, each owned
// by one reduction shard. Partition cuts that same space into
// block-aligned Ranges; RunRangeContext executes one range and returns
// the serialised sketch state of every shard the range owns; and
// MergeShardStates folds the states of all ranges — in shard order —
// into a Summary.
//
// Determinism argument: a shard's sketch state is a pure function of
// the Add sequence it saw, and with block ownership that sequence is
// exactly the shard's own scenarios in index order — never interleaved
// with another range's. Sketch serialisation is bit-exact and shard
// merging happens in shard order at the coordinator, identical to the
// merge loop of the single-process RunContext. Hence, for the same
// (scenario list, Shards), the merged Summary is bit-identical to the
// single-process one regardless of how many ranges or processes the
// campaign was split across, or which worker ran which range.

// Range is a half-open interval [Lo, Hi) of a campaign's scenario
// index space. Ranges handed to RunRangeContext must be aligned to the
// shard blocks of the Config that produced them (Partition guarantees
// this), so every range owns whole reduction shards.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len returns the number of scenarios in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// blockSize returns the length of one reduction-shard block: scenario
// i belongs to shard i/blockSize (see Config.Shards).
func blockSize(n, shards int) int { return (n + shards - 1) / shards }

// validate checks that the range lies inside [0, n) and is aligned to
// shard blocks of the given size (the tail block may be short).
func (r Range) validate(n, block int) error {
	if r.Lo < 0 || r.Hi > n || r.Lo >= r.Hi {
		return fmt.Errorf("campaign: range %s outside the scenario space [0,%d)", r, n)
	}
	if r.Lo%block != 0 || (r.Hi%block != 0 && r.Hi != n) {
		return fmt.Errorf("campaign: range %s not aligned to shard blocks of %d scenarios", r, block)
	}
	return nil
}

// Partition cuts the campaign's scenario index space into at most
// parts contiguous, shard-block-aligned Ranges of near-equal size,
// covering every index exactly once. Fewer ranges come back when the
// shard count does not support parts ranges (a range must own at
// least one whole shard block). The partition depends only on
// (len(Scenarios), Shards, parts) — never on worker identity — so any
// assignment of the returned ranges to processes reproduces the same
// Summary.
func Partition(cfg Config, parts int) ([]Range, error) {
	if len(cfg.Scenarios) == 0 {
		return nil, &ConfigError{"Scenarios", "no scenarios to partition"}
	}
	if parts <= 0 {
		return nil, fmt.Errorf("campaign: need a positive range count, got %d", parts)
	}
	n := len(cfg.Scenarios)
	shards := cfg.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	block := blockSize(n, shards)
	blocks := (n + block - 1) / block
	if parts > blocks {
		parts = blocks
	}
	out := make([]Range, 0, parts)
	for p := 0; p < parts; p++ {
		lo := p * blocks / parts * block
		hi := (p + 1) * blocks / parts * block
		if hi > n {
			hi = n
		}
		out = append(out, Range{lo, hi})
	}
	return out, nil
}

// runShards executes the scenarios of one shard-aligned range on the
// worker pool, streaming results in scenario-index order into the
// aggregators of the shard blocks the range owns and to
// Config.OnResult. It returns those aggregators in shard order. cfg
// and r must come through prepare, which also built the pool and
// resolved base.
//
// A non-nil mon (RunContext over the whole campaign only) observes
// each shard block as the reducer closes it — the serialised state a
// distributed coordinator would observe, so both fire at the same
// block. Once the rule fires (or Observe fails) the reducer cancels
// the pool, so no further scenario starts, and ends the stream, so
// none is consumed: the results then cover exactly the blocks up to
// mon.StopShard(), and an error or cancellation past them does not
// fail the run.
func runShards(ctx context.Context, cfg Config, r Range, pool *enginePool, base int, mon *StopMonitor) ([]*aggregator, error) {
	n := len(cfg.Scenarios)
	block := blockSize(n, cfg.Shards)
	first := r.Lo / block
	weighted := scenariosWeighted(cfg.Scenarios)
	aggs := make([]*aggregator, (r.Hi-1)/block-first+1)
	for s := range aggs {
		aggs[s] = newAggregator(weighted)
	}
	window := 4 * cfg.Workers
	if window < 16 {
		window = 16
	}
	poolCtx, cancelPool := context.WithCancel(ctx)
	defer cancelPool()
	var stopErr error
	st := newStreamer(window, func(j int, res *ScenarioResult) bool {
		i := r.Lo + j
		a := aggs[i/block-first]
		a.add(res)
		if cfg.OnResult != nil {
			cfg.OnResult(*res)
		}
		if mon == nil || ((i+1)%block != 0 && i+1 != n) {
			return true
		}
		state, err := a.state(i / block)
		if err == nil {
			err = mon.Observe(state)
		}
		if err == nil && !mon.Fired() {
			return true
		}
		stopErr = err
		cancelPool()
		return false
	})
	// Cancelling ctx aborts the streamer, so workers blocked on the
	// reorder window wake up and observe the cancellation instead of
	// wedging.
	defer context.AfterFunc(ctx, st.abort)()
	err := par.EachErrCtx(poolCtx, r.Len(), cfg.Workers, func(j int) error {
		sc := cfg.Scenarios[r.Lo+j]
		res, err := runOne(pool, sc.Waves)
		if err != nil {
			st.abort()
			return fmt.Errorf("campaign: scenario %d (%s): %w", sc.Index, sc.Label, err)
		}
		res.Scenario = sc
		if base > 0 {
			res.OutputLoss = 1 - float64(res.SinkTuples)/float64(base)
		}
		st.deliver(j, res)
		return nil
	})
	switch {
	case mon.Fired():
		// Every scenario of the prefix was consumed before the rule fired.
	case stopErr != nil:
		return nil, stopErr
	case err != nil:
		return nil, err
	}
	return aggs, nil
}

// ShardState is the serialisable reduction state of one shard: the
// exact counters plus the binary encoding of every metric sketch (see
// sketch.MarshalBinary). It is the unit a distributed campaign ships
// from workers back to the coordinator; JSON encodes the sketch bytes
// as base64.
type ShardState struct {
	// Shard is the shard index in [0, Shards); MergeShardStates merges
	// states in this order.
	Shard       int    `json:"shard"`
	Scenarios   int    `json:"scenarios"`
	Unrecovered int    `json:"unrecovered"`
	Latency     []byte `json:"latency"`
	Loss        []byte `json:"loss"`
	FailedTasks []byte `json:"failed_tasks"`
	Tentative   []byte `json:"tentative"`
	Corrected   []byte `json:"corrected"`
	T2C         []byte `json:"t2c"`
	// Weighted marks an importance-sampled shard: the sketch bytes
	// above are sketch.Weighted encodings, and the exact moment
	// counters below carry the effective-sample-size state (see
	// aggregator). All shards of one campaign agree on the mode.
	Weighted bool    `json:"weighted,omitempty"`
	SumW     float64 `json:"sum_w,omitempty"`
	SumW2    float64 `json:"sum_w2,omitempty"`
	SumWX    float64 `json:"sum_wx,omitempty"`
	SumWX2   float64 `json:"sum_wx2,omitempty"`
	SumW2X   float64 `json:"sum_w2x,omitempty"`
	SumW2X2  float64 `json:"sum_w2x2,omitempty"`
}

// sketchBytes returns the sketch-encoding fields of st, indexed by
// metric.
func (st *ShardState) sketchBytes() [numMetrics]*[]byte {
	return [numMetrics]*[]byte{&st.Latency, &st.Loss, &st.FailedTasks, &st.Tentative, &st.Corrected, &st.T2C}
}

// state serialises the aggregator as the state of the given shard.
func (a *aggregator) state(shard int) (ShardState, error) {
	st := ShardState{Shard: shard, Scenarios: a.scenarios, Unrecovered: a.unrecovered}
	if a.weighted {
		st.Weighted = true
		st.SumW, st.SumW2 = a.sumW, a.sumW2
		st.SumWX, st.SumWX2 = a.sumWX, a.sumWX2
		st.SumW2X, st.SumW2X2 = a.sumW2X, a.sumW2X2
	}
	for m, dst := range st.sketchBytes() {
		b, err := a.sketchOf(m).MarshalBinary()
		if err != nil {
			return ShardState{}, fmt.Errorf("campaign: encoding shard %d state: %w", shard, err)
		}
		*dst = b
	}
	return st, nil
}

// decodeState rebuilds the aggregator a ShardState was serialised from.
func decodeState(st ShardState) (*aggregator, error) {
	a := newAggregator(st.Weighted)
	a.scenarios, a.unrecovered = st.Scenarios, st.Unrecovered
	if st.Weighted {
		a.sumW, a.sumW2 = st.SumW, st.SumW2
		a.sumWX, a.sumWX2 = st.SumWX, st.SumWX2
		a.sumW2X, a.sumW2X2 = st.SumW2X, st.SumW2X2
	}
	for m, src := range st.sketchBytes() {
		if err := a.sketchOf(m).UnmarshalBinary(*src); err != nil {
			return nil, fmt.Errorf("campaign: decoding shard %d state: %w", st.Shard, err)
		}
	}
	return a, nil
}

// RunRange executes one shard-aligned range of the campaign and
// returns the serialised state of every shard the range owns, in
// shard order. See RunRangeContext.
func RunRange(cfg Config, r Range) ([]ShardState, error) {
	return RunRangeContext(context.Background(), cfg, r)
}

// RunRangeContext is the worker half of a distributed campaign: it
// executes the scenarios of one shard-aligned range (typically from
// Partition) and returns the serialised reduction state of every shard
// block the range owns. States from all ranges merge bit-identically
// to the single-process RunContext via MergeShardStates. KeepResults
// is rejected — per-scenario retention does not serialise; use
// OnResult locally instead. When Config.Baseline is zero every range
// measures loss against the volume of the failure-free trajectory it
// records anyway (see prepare); that volume equals BaselineVolume's,
// which a coordinator resolves once and ships in the config.
func RunRangeContext(ctx context.Context, cfg Config, r Range) ([]ShardState, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.KeepResults {
		return nil, &ConfigError{"KeepResults", "per-scenario retention is not available on the range path (use OnResult)"}
	}
	cfg, pool, base, err := prepare(cfg, r)
	if err != nil {
		return nil, err
	}
	aggs, err := runShards(ctx, cfg, r, pool, base, nil)
	if err != nil {
		return nil, err
	}
	first := r.Lo / blockSize(len(cfg.Scenarios), cfg.Shards)
	states := make([]ShardState, len(aggs))
	for i, a := range aggs {
		if states[i], err = a.state(first + i); err != nil {
			return nil, err
		}
	}
	return states, nil
}

// MergeShardStates folds serialised shard states — one per shard,
// collected from any number of ranges — into the campaign Summary. The
// merge happens in shard order regardless of the slice order, exactly
// like the single-process merge loop, so the result is bit-identical
// to RunContext for the same (scenario list, Shards). A duplicated
// shard index or an undecodable state is an error.
func MergeShardStates(states []ShardState) (Summary, error) {
	if len(states) == 0 {
		return Summary{}, fmt.Errorf("campaign: no shard states to merge")
	}
	sorted := append([]ShardState(nil), states...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Shard < sorted[j].Shard })
	agg, err := decodeState(sorted[0])
	if err != nil {
		return Summary{}, err
	}
	prev := sorted[0].Shard
	for _, st := range sorted[1:] {
		if st.Shard == prev {
			return Summary{}, fmt.Errorf("campaign: duplicate state for shard %d", st.Shard)
		}
		if st.Weighted != sorted[0].Weighted {
			return Summary{}, fmt.Errorf("campaign: shard %d weighted=%v mixed with shard %d weighted=%v", st.Shard, st.Weighted, sorted[0].Shard, sorted[0].Weighted)
		}
		prev = st.Shard
		b, err := decodeState(st)
		if err != nil {
			return Summary{}, err
		}
		agg.merge(b)
	}
	return agg.summary(), nil
}
