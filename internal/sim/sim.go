// Package sim provides a minimal deterministic discrete-event simulation
// kernel: a virtual clock with FIFO lanes beside an event heap. All
// recovery-latency experiments of the reproduction run on virtual time so
// that results are reproducible bit-for-bit and independent of host
// speed, replacing the paper's wall-clock EC2 measurements (see
// DESIGN.md §4).
//
// Events fire in (time, seq) order, seq being the scheduling order, so
// events at the same instant fire FIFO. Failures are the exception:
// Inject numbers them from their own counter, below every other event,
// so a failure fires first among the events of its instant however
// late it was scheduled, and failures of one instant fire in the order
// they were injected.
//
// A clock is built with the constant delays its user re-arms with (the
// engine's network delay and its timer intervals) and keeps one lane
// per distinct delay: a FIFO ring of the events scheduled that delay
// after now. Every other event goes to a binary heap of values. A lane
// needs no ordering work: now never
// decreases between restores, rounding makes float addition monotone, so
// now+d never decreases either, and seq strictly increases, so every lane
// is always sorted by (time, seq). Firing takes the smallest of the heap
// top and the lane heads, which yields exactly the order one heap over
// all events gives.
//
// Nothing is ever cancelled: a scheduled event fires, or is dropped by
// Restore. Stale engine events (of a failed or restarted task's earlier
// life) fence themselves when they fire. So events are plain values without handles,
// the queues keep no index into themselves, and a fired event's slot is
// cleared, retaining nothing. AppendPending records the pending events
// and Restore puts exactly those back: since the numbers alone order
// the events, a restored clock fires like the recorded one.
package sim

import (
	"fmt"
	"math"
)

// Time is virtual time in seconds.
type Time float64

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", float64(t)) }

// Runner is an event callback carried as an interface instead of a
// closure: the engine implements Run on pooled or long-lived structs
// (deliveries, batch completions, timers, failures and recovery steps),
// so scheduling an event allocates nothing.
type Runner interface {
	Run()
}

// event is one scheduled callback, stored by value in a lane or the
// heap.
type event struct {
	at  Time
	seq int64
	run Runner
}

// less orders events by time, then by scheduling order. (at, seq) pairs
// are unique, so the firing order does not depend on which queue holds
// an event or on heap-internal tie-breaking.
func (e *event) less(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// lane is the FIFO ring of the events scheduled one constant delay d
// after now: n events from head, in firing order. The ring's length is
// zero or a power of two.
type lane struct {
	d       Time
	ring    []event
	head, n int
}

// front returns the lane's first event; the lane must not be empty.
func (l *lane) front() *event { return &l.ring[l.head] }

// at returns the i-th slot from the head.
func (l *lane) at(i int) *event { return &l.ring[(l.head+i)&(len(l.ring)-1)] }

func (l *lane) push(e event) {
	if l.n == len(l.ring) {
		l.grow()
	}
	*l.at(l.n) = e
	l.n++
}

// pop removes and returns the first event, clearing its slot.
func (l *lane) pop() event {
	h := l.front()
	e := *h
	*h = event{}
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return e
}

// grow doubles the full ring, unwrapping it to start at index zero.
func (l *lane) grow() {
	ring := make([]event, max(2*len(l.ring), 64))
	k := copy(ring, l.ring[l.head:])
	copy(ring[k:], l.ring[:l.head])
	l.ring, l.head = ring, 0
}

// clear drops every event of the lane.
func (l *lane) clear() {
	for i := 0; i < l.n; i++ {
		*l.at(i) = event{}
	}
	l.head, l.n = 0, 0
}

// Clock is a deterministic discrete-event scheduler. Events scheduled
// for the same instant fire in scheduling order. Not safe for concurrent
// use: the whole simulation is single-threaded by design.
type Clock struct {
	now Time
	// seq is the number of the latest event scheduled with AtRun or
	// AfterRun, counting up from 1; fails is the number of the latest
	// failure Inject scheduled, counting up from math.MinInt64. So a
	// failure's number is negative, below every other event's.
	seq, fails int64
	heap       []event
	// lanes holds one lane per distinct NewClock delay, in argument
	// order. Firing compares the heap top with the head of lanes[0], the
	// hot lane, and with the head of lanes[cold], the earliest head among
	// the other lanes; cold is 0 when those are all empty. cold changes
	// only when its lane pops or another lane receives its first event.
	lanes []lane
	cold  int
}

// Event is a value copy of one pending event, as AppendPending reports
// it and Restore queues it again. A negative Seq marks a failure.
type Event struct {
	At  Time
	Seq int64
	Run Runner
}

// NewClock returns a clock at time zero with no pending events and one
// lane per distinct delay of delays: AfterRun with one of them schedules
// on its lane instead of the heap. The first delay's lane is checked
// first on every firing, so it should be the busiest. A negative or NaN
// delay panics: it would run the clock backwards.
func NewClock(delays ...Time) *Clock {
	c := &Clock{fails: math.MinInt64}
	for _, d := range delays {
		if !(d >= 0) {
			panic(fmt.Sprintf("sim: invalid lane delay %v", d))
		}
		if c.lane(d) < 0 {
			c.lanes = append(c.lanes, lane{d: d})
		}
	}
	return c
}

// lane returns the index of the lane of delay d, or -1.
func (c *Clock) lane(d Time) int {
	for i := range c.lanes {
		if c.lanes[i].d == d {
			return i
		}
	}
	return -1
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// AtRun schedules r.Run at absolute virtual time t on the heap.
// Scheduling in the past or at a NaN time panics: it would make the
// simulation non-causal.
func (c *Clock) AtRun(t Time, r Runner) {
	c.check(t)
	c.seq++
	c.push(event{at: t, seq: c.seq, run: r})
}

// Inject schedules the failure r.Run at absolute virtual time t on the
// heap. It fires ahead of every event of that instant that is not a
// failure, whenever either was scheduled, and after the failures of
// that instant injected before it. Semantics otherwise match AtRun.
func (c *Clock) Inject(t Time, r Runner) {
	c.check(t)
	c.fails++
	c.push(event{at: t, seq: c.fails, run: r})
}

// check panics on a time in the past or a NaN time: scheduling there
// would make the simulation non-causal.
func (c *Clock) check(t Time) {
	if !(t >= c.now) {
		if t != t {
			panic("sim: scheduling event at NaN time")
		}
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, c.now))
	}
}

// AfterRun schedules r.Run d seconds from now: on the lane of delay d if
// the clock has one, else on the heap. Both fire in the order of
// AtRun(Now()+d, r). A negative or NaN delay panics.
func (c *Clock) AfterRun(d Time, r Runner) {
	if !(d >= 0) {
		panic(fmt.Sprintf("sim: invalid delay %v", d))
	}
	i := c.lane(d)
	if i < 0 {
		c.AtRun(c.now+d, r)
		return
	}
	l := &c.lanes[i]
	c.seq++
	l.push(event{at: c.now + d, seq: c.seq, run: r})
	if i > 0 && l.n == 1 && (c.cold == 0 || l.front().less(c.lanes[c.cold].front())) {
		c.cold = i
	}
}

// recold points cold at the lane after the first whose head fires
// first, or 0 when they are all empty.
func (c *Clock) recold() {
	c.cold = 0
	for i := 1; i < len(c.lanes); i++ {
		if l := &c.lanes[i]; l.n > 0 && (c.cold == 0 || l.front().less(c.lanes[c.cold].front())) {
			c.cold = i
		}
	}
}

// Pending returns the number of events still queued. Only tests call
// it: this package's and internal/engine's TestEngineResetBitIdentical.
func (c *Clock) Pending() int {
	n := len(c.heap)
	for i := range c.lanes {
		n += c.lanes[i].n
	}
	return n
}

// LanePending returns the number of events pending on the lane of delay
// d, or -1 when the clock has no lane of that delay. Only tests call it:
// this package's and internal/engine's TestEngineResetBitIdentical.
func (c *Clock) LanePending(d Time) int {
	if i := c.lane(d); i >= 0 {
		return c.lanes[i].n
	}
	return -1
}

// RunUntil fires events with timestamps <= deadline, then sets the clock
// to the deadline. A NaN deadline panics: no event would ever be past
// it, so self-rearming events would fire forever.
func (c *Clock) RunUntil(deadline Time) {
	if deadline != deadline {
		panic("sim: RunUntil with a NaN deadline")
	}
	for c.fire(deadline) {
	}
	if c.now < deadline {
		c.now = deadline
	}
}

// fire fires the next event, the smallest of the heap top, the hot
// lane's head and the cold lanes' earliest head, if it is due by
// deadline, and reports whether it did.
func (c *Clock) fire(deadline Time) bool {
	var next *event
	if len(c.heap) > 0 {
		next = &c.heap[0]
	}
	from := -1 // the heap
	if len(c.lanes) > 0 {
		if l := &c.lanes[0]; l.n > 0 && (next == nil || l.front().less(next)) {
			next, from = l.front(), 0
		}
	}
	if c.cold > 0 {
		if h := c.lanes[c.cold].front(); next == nil || h.less(next) {
			next, from = h, c.cold
		}
	}
	if next == nil || next.at > deadline {
		return false
	}
	var e event
	if from < 0 {
		e = c.pop()
	} else {
		e = c.lanes[from].pop()
		if from > 0 {
			c.recold()
		}
	}
	c.now = e.at
	e.run.Run()
	return true
}

// AppendPending appends a value copy of every pending event, of the heap
// and every lane, to dst, in no particular order, and returns the
// extended slice together with the sequence counter (the number the
// latest scheduled event that is not a failure got). Restore takes both
// back.
func (c *Clock) AppendPending(dst []Event) ([]Event, int64) {
	for i := range c.heap {
		e := &c.heap[i]
		dst = append(dst, Event{At: e.at, Seq: e.seq, Run: e.run})
	}
	for i := range c.lanes {
		l := &c.lanes[i]
		for j := 0; j < l.n; j++ {
			e := l.at(j)
			dst = append(dst, Event{At: e.at, Seq: e.seq, Run: e.run})
		}
	}
	return dst, c.seq
}

// Restore sets the clock to time now with exactly the pending events
// evs, recorded by AppendPending from a clock whose counter stood at
// seq; whatever was queued before, on the heap or a lane, is dropped.
// The recorded events keep their numbers, the counter resumes at seq
// and the failure counter past the recorded failures, so the restored
// clock fires exactly like the recorded one, same-instant ties
// included. The recorded events all go to the heap, so each lane only
// ever holds events AfterRun scheduled since, in order.
// Restore(0, 0, nil) makes the clock indistinguishable from a new one.
func (c *Clock) Restore(now Time, seq int64, evs []Event) {
	for _, ev := range evs {
		if !(ev.At >= now) {
			panic(fmt.Sprintf("sim: restoring event at %v before now %v", ev.At, now))
		}
	}
	clear(c.heap)
	c.heap = c.heap[:0]
	for i := range c.lanes {
		c.lanes[i].clear()
	}
	c.cold = 0
	c.now, c.seq, c.fails = now, seq, math.MinInt64
	for _, ev := range evs {
		if ev.Seq < 0 {
			c.fails = max(c.fails, ev.Seq)
		}
		c.push(event{at: ev.At, seq: ev.Seq, run: ev.Run})
	}
}

// --- binary heap of values over (at, seq) ---

func (c *Clock) push(e event) {
	c.heap = append(c.heap, e)
	h := c.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

func (c *Clock) pop() event {
	h := c.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	c.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].less(&h[child]) {
			child = r
		}
		if !h[child].less(&last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = last
	return top
}
