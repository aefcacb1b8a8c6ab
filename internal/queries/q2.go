package queries

import (
	"bytes"
	"encoding/gob"
	"sort"

	"repro/internal/engine"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Q2 is the traffic-incident detection query bundle (§VI-B): a join of
// the segment-speed stream (from user locations) with the
// distinct-incident stream (from user incident reports); incidents that
// coincide with a depressed segment speed are reported as jams.
type Q2 struct {
	Model *workload.TrafficModel
	Topo  *topology.Topology
	// WindowBatches is the join window (paper: 5-minute window, 10 s
	// slide; scaled to batches here).
	WindowBatches int
	// JamThreshold is the speed below which a segment counts as jammed.
	JamThreshold float64
}

// Q2Params sizes the query.
type Q2Params struct {
	Seed          int64
	LocTasks      int // parallelism of the location source and O1 (default 8)
	IncTasks      int // parallelism of the incident source and O2 (default 2)
	JoinTasks     int // parallelism of the join O3 (default 4)
	WindowBatches int // join window in batches (default 30)
	Users         int // users in the traffic model (default 100000)
	Segments      int // road segments (default 1000)
	LocRate       int // location records per batch (default 20000)
}

// NewQ2 builds the query topology of Fig. 11: two sources, the
// per-segment speed aggregation O1, the incident deduplication O2, the
// correlated-input join O3 and the aggregation sink O4.
func NewQ2(p Q2Params) (*Q2, error) {
	if p.LocTasks == 0 {
		p.LocTasks = 8
	}
	if p.IncTasks == 0 {
		p.IncTasks = 2
	}
	if p.JoinTasks == 0 {
		p.JoinTasks = 4
	}
	if p.WindowBatches == 0 {
		p.WindowBatches = 30
	}
	model := workload.NewTrafficModel(p.Seed)
	if p.Users != 0 {
		model.Users = p.Users
	}
	if p.Segments != 0 {
		model.Segments = p.Segments
	}
	if p.LocRate != 0 {
		model.LocRecordsPerBatch = p.LocRate
	}

	b := topology.NewBuilder()
	locSrc := b.AddSource("loc-src", p.LocTasks, float64(model.LocRecordsPerBatch)/float64(p.LocTasks))
	incSrc := b.AddSource("inc-src", p.IncTasks, 50)
	o1 := b.AddOperator("O1-speed", p.LocTasks, topology.Independent, 0.05)
	o2 := b.AddOperator("O2-dedup", p.IncTasks, topology.Independent, 0.05)
	o3 := b.AddOperator("O3-join", p.JoinTasks, topology.Correlated, 0.05)
	o4 := b.AddOperator("O4-agg", 1, topology.Independent, 1)
	b.Connect(locSrc, o1, topology.OneToOne)
	b.Connect(incSrc, o2, topology.OneToOne)
	b.Connect(o1, o3, topology.Full)
	b.Connect(o2, o3, topology.Full)
	b.Connect(o3, o4, topology.Merge)
	topo, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Q2{Model: model, Topo: topo, WindowBatches: p.WindowBatches, JamThreshold: 30}, nil
}

// speedObs is the per-segment speed observation flowing O1 -> O3.
type speedObs struct {
	Speed float64
}

// Sources returns the engine source factories: operator 0 emits
// user-location records (one summarised tuple per covered segment, with
// the raw record volume in Count), operator 1 emits user incident
// reports.
func (q *Q2) Sources() map[int]engine.SourceFactory {
	locTasks := q.Topo.Ops[0].Parallelism
	incTasks := q.Topo.Ops[1].Parallelism
	return map[int]engine.SourceFactory{
		0: func(task int) engine.SourceFunc {
			return engine.FuncSource(func(batch int) engine.Batch {
				recs := q.Model.LocRecords(batch)
				var tuples []engine.Tuple
				total := 0
				for seg := task; seg < q.Model.Segments; seg += locTasks {
					n := recs[seg]
					if n == 0 {
						continue
					}
					total += n
					tuples = append(tuples, engine.Tuple{
						Key:   workload.SegmentName(seg),
						Value: speedObs{Speed: q.Model.SpeedOf(seg, batch)},
					})
				}
				return engine.Batch{Count: total, Tuples: tuples}
			})
		},
		1: func(task int) engine.SourceFunc {
			return engine.FuncSource(func(batch int) engine.Batch {
				inc, ok := q.Model.IncidentAt(batch)
				if !ok || inc.Segment%incTasks != task {
					return engine.Batch{}
				}
				// Every user on the segment reports the incident; one
				// summarised tuple carries the report volume.
				reports := q.Model.UsersOn(inc.Segment)
				if reports < 1 {
					reports = 1
				}
				return engine.Batch{
					Count: reports,
					Tuples: []engine.Tuple{{
						Key:   workload.SegmentName(inc.Segment),
						Value: inc.ID,
					}},
				}
			})
		},
	}
}

// Operators returns the engine UDF factories.
func (q *Q2) Operators() map[int]engine.OperatorFactory {
	return map[int]engine.OperatorFactory{
		2: func(int) engine.OperatorFunc { return &speedAggOp{} },
		3: func(int) engine.OperatorFunc { return &dedupOp{} },
		4: func(int) engine.OperatorFunc {
			return &joinOp{window: q.WindowBatches, threshold: q.JamThreshold}
		},
		5: func(int) engine.OperatorFunc { return &collectOp{} },
	}
}

// speedAggOp (O1) forwards the per-segment average speed each batch.
type speedAggOp struct {
	cur map[string]float64
}

func (o *speedAggOp) ProcessBatch(batch, fromOp int, in engine.Batch, emit engine.Emitter) {
	if o.cur == nil {
		o.cur = make(map[string]float64)
	}
	for _, t := range in.Tuples {
		if s, ok := t.Value.(speedObs); ok {
			o.cur[t.Key] = s.Speed
		}
	}
}

func (o *speedAggOp) OnBatchEnd(batch int, emit engine.Emitter) {
	keys := make([]string, 0, len(o.cur))
	for k := range o.cur {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		emit.Emit(engine.Tuple{Key: k, Value: speedObs{Speed: o.cur[k]}})
	}
	o.cur = nil
}

func (o *speedAggOp) Snapshot([]byte) ([]byte, int) { return nil, 0 }
func (o *speedAggOp) Restore([]byte) error          { o.cur = nil; return nil }

// dedupOp (O2) combines the user-reported incident events into distinct
// incident events.
type dedupOp struct {
	cur map[string]string // segment -> incident id
}

func (o *dedupOp) ProcessBatch(batch, fromOp int, in engine.Batch, emit engine.Emitter) {
	if o.cur == nil {
		o.cur = make(map[string]string)
	}
	for _, t := range in.Tuples {
		if id, ok := t.Value.(string); ok {
			o.cur[t.Key] = id
		}
	}
}

func (o *dedupOp) OnBatchEnd(batch int, emit engine.Emitter) {
	keys := make([]string, 0, len(o.cur))
	for k := range o.cur {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		emit.Emit(engine.Tuple{Key: k, Value: o.cur[k]})
	}
	o.cur = nil
}

func (o *dedupOp) Snapshot([]byte) ([]byte, int) { return nil, 0 }
func (o *dedupOp) Restore([]byte) error          { o.cur = nil; return nil }

// joinState is the serialisable state of joinOp.
type joinState struct {
	Incidents map[string]incidentEntry
	Emitted   map[string]bool
}

type incidentEntry struct {
	ID    string
	Since int
}

// joinOp (O3) is the correlated-input operator: it joins the
// segment-speed stream with the distinct-incident stream; an incident
// whose segment speed drops below the threshold within the join window
// is emitted as a traffic jam.
type joinOp struct {
	window    int
	threshold float64
	incidents map[string]incidentEntry // segment -> active incident
	emitted   map[string]bool          // incident ids already reported
	speeds    map[string]float64       // current-batch speeds
}

func (o *joinOp) ProcessBatch(batch, fromOp int, in engine.Batch, emit engine.Emitter) {
	if o.incidents == nil {
		o.incidents = make(map[string]incidentEntry)
		o.emitted = make(map[string]bool)
	}
	if o.speeds == nil {
		o.speeds = make(map[string]float64)
	}
	for _, t := range in.Tuples {
		switch v := t.Value.(type) {
		case speedObs:
			o.speeds[t.Key] = v.Speed
		case string:
			o.incidents[t.Key] = incidentEntry{ID: v, Since: batch}
		}
	}
}

func (o *joinOp) OnBatchEnd(batch int, emit engine.Emitter) {
	segs := make([]string, 0, len(o.incidents))
	for s := range o.incidents {
		segs = append(segs, s)
	}
	sort.Strings(segs)
	for _, s := range segs {
		entry := o.incidents[s]
		if batch-entry.Since > o.window {
			delete(o.incidents, s)
			continue
		}
		speed, ok := o.speeds[s]
		if !ok || speed >= o.threshold || o.emitted[entry.ID] {
			continue
		}
		o.emitted[entry.ID] = true
		emit.Emit(engine.Tuple{Key: entry.ID, Value: s})
	}
	o.speeds = nil
}

func (o *joinOp) Snapshot(buf []byte) ([]byte, int) {
	w := bytes.NewBuffer(buf)
	_ = gob.NewEncoder(w).Encode(joinState{Incidents: o.incidents, Emitted: o.emitted})
	return w.Bytes(), 0
}

func (o *joinOp) Restore(data []byte) error {
	o.speeds = nil
	if data == nil {
		o.incidents, o.emitted = nil, nil
		return nil
	}
	var st joinState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	o.incidents, o.emitted = st.Incidents, st.Emitted
	return nil
}

// collectOp (O4) forwards jam reports to the sink output.
type collectOp struct{}

func (collectOp) ProcessBatch(batch, fromOp int, in engine.Batch, emit engine.Emitter) {
	for _, t := range in.Tuples {
		emit.Emit(t)
	}
}
func (collectOp) OnBatchEnd(int, engine.Emitter) {}
func (collectOp) Snapshot([]byte) ([]byte, int)  { return nil, 0 }
func (collectOp) Restore([]byte) error           { return nil }

// AllKeys extracts the distinct tuple keys seen at the sink — Q2's
// incident set.
func AllKeys(records []engine.SinkRecord) map[string]bool {
	out := make(map[string]bool)
	for _, r := range records {
		out[r.Tuple.Key] = true
	}
	return out
}
