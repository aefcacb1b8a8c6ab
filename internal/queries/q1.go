// Package queries implements the evaluation queries of Su & Zhou (ICDE
// 2016), §VI: Q1, the hierarchical top-100 aggregation over the (here
// synthetic) WorldCup access log; Q2, the traffic-incident detection
// join over user-location and incident streams; and the Fig. 6
// synthetic topology used by the recovery-efficiency experiments.
package queries

import (
	"bytes"
	"encoding/gob"
	"slices"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Q1 is the top-k query bundle: topology plus engine factories.
type Q1 struct {
	Model *workload.AccessLogModel
	Topo  *topology.Topology
	K     int
	// WindowBatches is the sliding window of the top-k aggregation.
	WindowBatches int
}

// Q1Params sizes the query.
type Q1Params struct {
	Seed          int64
	Servers       int // parallelism of the source and O1 (default 8)
	MergeTasks    int // parallelism of O2 (default 4)
	K             int // top-k (default 100)
	WindowBatches int // sliding window (default 30)
	RatePerTask   int // access records per batch per source task (default 2000)
}

// NewQ1 builds the query: source (one task per server, partitioned by
// server id) -> O1 slice aggregation -> O2 merge -> O3 global top-k
// (single task), the hierarchical-aggregate topology of Fig. 11.
func NewQ1(p Q1Params) (*Q1, error) {
	if p.Servers == 0 {
		p.Servers = 8
	}
	if p.MergeTasks == 0 {
		p.MergeTasks = 4
	}
	if p.K == 0 {
		p.K = 100
	}
	if p.WindowBatches == 0 {
		p.WindowBatches = 30
	}
	if p.RatePerTask == 0 {
		p.RatePerTask = 2000
	}
	model := workload.NewAccessLogModel(p.Seed)
	model.Servers = p.Servers
	model.RatePerTask = p.RatePerTask

	b := topology.NewBuilder()
	src := b.AddSource("access-log", p.Servers, float64(p.RatePerTask))
	o1 := b.AddOperator("O1-slice", p.Servers, topology.Independent, 0.2)
	o2 := b.AddOperator("O2-merge", p.MergeTasks, topology.Independent, 0.5)
	o3 := b.AddOperator("O3-topk", 1, topology.Independent, 0.1)
	b.Connect(src, o1, topology.OneToOne)
	b.Connect(o1, o2, topology.Merge)
	b.Connect(o2, o3, topology.Merge)
	topo, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Q1{Model: model, Topo: topo, K: p.K, WindowBatches: p.WindowBatches}, nil
}

// Sources returns the engine source factories.
func (q *Q1) Sources() map[int]engine.SourceFactory {
	return map[int]engine.SourceFactory{
		0: func(task int) engine.SourceFunc {
			return engine.FuncSource(func(batch int) engine.Batch {
				counts, rest := q.Model.AccessCounts(task, batch)
				objs := make([]int, 0, len(counts))
				total := rest
				for o, c := range counts {
					objs = append(objs, o)
					total += c
				}
				sort.Ints(objs)
				tuples := make([]engine.Tuple, 0, len(objs))
				for _, o := range objs {
					tuples = append(tuples, engine.Tuple{Key: workload.ObjectName(o), Value: counts[o]})
				}
				return engine.Batch{Count: total, Tuples: tuples}
			})
		},
	}
}

// Operators returns the engine UDF factories.
func (q *Q1) Operators() map[int]engine.OperatorFactory {
	return map[int]engine.OperatorFactory{
		1: func(int) engine.OperatorFunc { return &countMergeOp{} },
		2: func(int) engine.OperatorFunc { return &countMergeOp{} },
		3: func(int) engine.OperatorFunc {
			return &topKOp{k: q.K, window: q.WindowBatches}
		},
	}
}

// countMergeOp sums per-key partial counts within a batch and emits one
// partial per key on batch end — both the slice aggregation (O1) and
// the merge (O2) of Q1. State does not span batches (slices), so
// snapshots are empty.
type countMergeOp struct {
	acc map[string]int
}

func (o *countMergeOp) ProcessBatch(batch, fromOp int, in engine.Batch, emit engine.Emitter) {
	if o.acc == nil {
		o.acc = make(map[string]int)
	}
	for _, t := range in.Tuples {
		if c, ok := t.Value.(int); ok {
			o.acc[t.Key] += c
		}
	}
}

func (o *countMergeOp) OnBatchEnd(batch int, emit engine.Emitter) {
	keys := make([]string, 0, len(o.acc))
	for k := range o.acc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		emit.Emit(engine.Tuple{Key: k, Value: o.acc[k]})
	}
	o.acc = nil
}

func (o *countMergeOp) Snapshot([]byte) ([]byte, int) { return nil, 0 }
func (o *countMergeOp) Restore(d []byte) error        { o.acc = nil; return nil }

// topKOp maintains a sliding window of per-key counts (a FIFO ring of
// per-batch maps) and emits the current top-k every batch.
type topKOp struct {
	k      int
	window int
	ring   []map[string]int // oldest first
	totals map[string]int
	cur    map[string]int
}

func (o *topKOp) ProcessBatch(batch, fromOp int, in engine.Batch, emit engine.Emitter) {
	if o.totals == nil {
		o.totals = make(map[string]int)
	}
	if o.cur == nil {
		o.cur = make(map[string]int)
	}
	for _, t := range in.Tuples {
		if c, ok := t.Value.(int); ok {
			o.cur[t.Key] += c
			o.totals[t.Key] += c
		}
	}
}

func (o *topKOp) OnBatchEnd(batch int, emit engine.Emitter) {
	type kv struct {
		k string
		v int
	}
	all := make([]kv, 0, len(o.totals))
	for k, v := range o.totals {
		if v > 0 {
			all = append(all, kv{k, v})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	n := o.k
	if n > len(all) {
		n = len(all)
	}
	for i := 0; i < n; i++ {
		emit.Emit(engine.Tuple{Key: all[i].k, Value: i + 1})
	}
	// Slide the window.
	if o.cur == nil {
		o.cur = map[string]int{}
	}
	o.ring = append(o.ring, o.cur)
	o.cur = nil
	if o.window > 0 && len(o.ring) > o.window {
		for k, v := range o.ring[0] {
			o.totals[k] -= v
			if o.totals[k] <= 0 {
				delete(o.totals, k)
			}
		}
		o.ring = o.ring[1:]
	}
}

// topKState is the serialisable state of topKOp, its maps as
// key-sorted entries.
type topKState struct {
	Ring   [][]entry[int]
	Totals []entry[int]
}

func (o *topKOp) Snapshot(buf []byte) ([]byte, int) {
	st := topKState{Ring: make([][]entry[int], len(o.ring)), Totals: sortedEntries(o.totals)}
	for i, m := range o.ring {
		st.Ring[i] = sortedEntries(m)
	}
	w := bytes.NewBuffer(buf)
	_ = gob.NewEncoder(w).Encode(st)
	return w.Bytes(), 0
}

func (o *topKOp) Restore(data []byte) error {
	o.cur = nil
	if data == nil {
		o.ring, o.totals = nil, nil
		return nil
	}
	var st topKState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	o.ring, o.totals = make([]map[string]int, len(st.Ring)), entryMap(st.Totals)
	for i, es := range st.Ring {
		o.ring[i] = entryMap(es)
	}
	return nil
}

// entry is one map entry of an operator snapshot.
type entry[V any] struct {
	K string
	V V
}

// sortedEntries lists m's entries in key order, so that equal maps
// snapshot to equal bytes.
func sortedEntries[V any](m map[string]V) []entry[V] {
	es := make([]entry[V], 0, len(m))
	for k, v := range m {
		es = append(es, entry[V]{k, v})
	}
	slices.SortFunc(es, func(a, b entry[V]) int { return strings.Compare(a.K, b.K) })
	return es
}

// entryMap rebuilds the map sortedEntries listed.
func entryMap[V any](es []entry[V]) map[string]V {
	m := make(map[string]V, len(es))
	for _, e := range es {
		m[e.K] = e.V
	}
	return m
}

// LastBatchKeys extracts the key set emitted at the given sink batch; if
// batch is negative, the highest batch present is used.
func LastBatchKeys(records []engine.SinkRecord, batch int) (map[string]bool, int) {
	if batch < 0 {
		for _, r := range records {
			if r.Batch > batch {
				batch = r.Batch
			}
		}
	}
	out := make(map[string]bool)
	for _, r := range records {
		if r.Batch == batch {
			out[r.Tuple.Key] = true
		}
	}
	return out, batch
}

// SetAccuracy computes |test ∩ truth| / |truth| — the paper's accuracy
// function for both Q1 (top-k overlap) and Q2 (incident overlap).
func SetAccuracy(test, truth map[string]bool) float64 {
	if len(truth) == 0 {
		return 0
	}
	inter := 0
	for k := range test {
		if truth[k] {
			inter++
		}
	}
	return float64(inter) / float64(len(truth))
}
