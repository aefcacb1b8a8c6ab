package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call. start and end are offsets from the tracer's epoch; while
// the span is open allocB and allocN hold the heap allocation counters
// at its start, and after end the allocation made within it.
type span struct {
	name       string
	parent     int32
	scenario   int32
	start, end time.Duration
	allocB     uint64
	allocN     uint64
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced drive: every method returns at once.
type tracer struct {
	epoch   time.Time
	spans   []span
	stack   []int32
	samples []metrics.Sample
}

func newTracer(capacity int) *tracer {
	return &tracer{
		epoch: time.Now(),
		spans: make([]span, 0, capacity),
		samples: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/heap/allocs:objects"},
		},
	}
}

func (t *tracer) allocs() (uint64, uint64) {
	metrics.Read(t.samples)
	return t.samples[0].Value.Uint64(), t.samples[1].Value.Uint64()
}

// begin opens a span as a child of the innermost open one. The counters
// are read before the clock, so reading them is outside the span.
func (t *tracer) begin(name string, scenario int) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	b, n := t.allocs()
	t.spans = append(t.spans, span{name: name, parent: parent, scenario: int32(scenario), start: time.Since(t.epoch), allocB: b, allocN: n})
	id := int32(len(t.spans) - 1)
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	b, n := t.allocs()
	s := &t.spans[id]
	s.end = now
	s.allocB = b - s.allocB
	s.allocN = n - s.allocN
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// attrRow is one line of the attribution table: what the spans of one
// name cost per scenario, net of their child spans.
type attrRow struct {
	Span                string  `json:"span"`
	Calls               int     `json:"calls"`
	SelfUSPerScenario   float64 `json:"self_us_per_scenario"`
	KBPerScenario       float64 `json:"kb_per_scenario"`
	AllocsPerScenario   float64 `json:"allocs_per_scenario"`
	SelfShareOfScenario float64 `json:"self_share"`
}

// attribution computes self time and self allocation per span name over
// n scenarios: a span's self values are its own minus what its children
// cover. Rows are sorted by self time, largest first.
func (t *tracer) attribution(n int) []attrRow {
	type acc struct {
		calls        int
		self         time.Duration
		bytes, count int64
	}
	childDur := make([]time.Duration, len(t.spans))
	childB := make([]int64, len(t.spans))
	childN := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childDur[s.parent] += s.end - s.start
			childB[s.parent] += int64(s.allocB)
			childN[s.parent] += int64(s.allocN)
		}
	}
	by := map[string]*acc{}
	var total time.Duration
	for i, s := range t.spans {
		a := by[s.name]
		if a == nil {
			a = &acc{}
			by[s.name] = a
		}
		a.calls++
		a.self += s.end - s.start - childDur[i]
		a.bytes += int64(s.allocB) - childB[i]
		a.count += int64(s.allocN) - childN[i]
		if s.name == "scenario" {
			total += s.end - s.start
		}
	}
	var rows []attrRow
	for name, a := range by {
		rows = append(rows, attrRow{
			Span:                name,
			Calls:               a.calls,
			SelfUSPerScenario:   float64(a.self) / 1e3 / float64(n),
			KBPerScenario:       float64(a.bytes) / 1024 / float64(n),
			AllocsPerScenario:   float64(a.count) / float64(n),
			SelfShareOfScenario: float64(a.self) / float64(total),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfUSPerScenario > rows[j].SelfUSPerScenario })
	return rows
}

// traceEvent is one Chrome trace-event "complete" event; times are in
// microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// events renders the spans as trace events of process 1, thread 1.
func (t *tracer) events() []traceEvent {
	out := make([]traceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		cat, _, _ := strings.Cut(s.name, ".")
		out = append(out, traceEvent{
			Name: s.name, Cat: cat, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"scenario": s.scenario, "parent": s.parent, "alloc_bytes": s.allocB, "allocs": s.allocN},
		})
	}
	return out
}

// writeTrace writes the events as a Chrome trace-event JSON file, with
// the run's manifest and attribution table under "otherData".
func writeTrace(path string, events []traceEvent, other any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		OtherData       any          `json:"otherData"`
	}{events, "ms", other})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
