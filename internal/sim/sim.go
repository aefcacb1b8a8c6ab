// Package sim provides a minimal deterministic discrete-event simulation
// kernel: a virtual clock with two event queues. All recovery-latency
// experiments of the reproduction run on virtual time so that results
// are reproducible bit-for-bit and independent of host speed, replacing
// the paper's wall-clock EC2 measurements (see DESIGN.md §4).
//
// Events fire in (time, seq) order, seq being the scheduling order, so
// events at the same instant fire FIFO. The clock keeps them in two
// lanes. Events scheduled a constant hop after now (the engine's
// network deliveries and checkpoint trims) go to the hop lane, a FIFO
// ring; every other event goes to a binary heap of values. The ring
// needs no ordering work: now never decreases between restores,
// rounding makes float addition monotone, so now+hop never decreases
// either, and seq strictly increases, so the ring is always sorted by
// (time, seq). Firing takes the smaller of the ring head and the heap
// top, which yields exactly the order one heap over all events gives.
//
// Nothing is ever cancelled: a scheduled event fires, or is dropped by
// Restore. Stale engine events (of a failed task incarnation) fence
// themselves when they fire. So events are plain values without handles,
// the queues keep no index into themselves, and a fired event's slot is
// cleared, retaining nothing.
package sim

import (
	"fmt"
	"math"
)

// Time is virtual time in seconds.
type Time float64

// Millis returns the time in whole milliseconds, for reporting.
func (t Time) Millis() float64 { return float64(t) * 1000 }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", float64(t)) }

// Runner is an event callback carried as an interface instead of a
// closure. Schedulers with a hot path (the engine's per-batch delivery
// events) implement Run on a pooled struct and pass it to AtRun or Hop,
// avoiding the per-event closure allocation of At and After.
type Runner interface {
	Run()
}

// runFunc carries a closure as a Runner. A func value is one pointer,
// so the conversion does not allocate.
type runFunc func()

func (f runFunc) Run() { f() }

// event is one scheduled callback, stored by value in either lane.
type event struct {
	at  Time
	seq uint64
	run Runner
}

// less orders events by time, then by scheduling order. (at, seq) pairs
// are unique, so the firing order does not depend on which lane holds
// an event or on heap-internal tie-breaking.
func (e *event) less(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// Clock is a deterministic discrete-event scheduler. Events scheduled
// for the same instant fire in scheduling order. Not safe for concurrent
// use: the whole simulation is single-threaded by design.
type Clock struct {
	now  Time
	seq  uint64
	hop  Time
	heap []event
	// lane is the hop lane: a ring of n events from head, in firing
	// order. Its length is zero or a power of two.
	lane    []event
	head, n int

	// deferred holds the recorded events a Restore queues only at the
	// next step, numbered past the events scheduled in between; base is
	// the counter they are shifted from and last the recorded counter.
	// restored is set until that step.
	deferred   []Event
	base, last uint64
	restored   bool
}

// Event is a value copy of one pending event, as AppendPending reports
// it and Restore queues it again.
type Event struct {
	At  Time
	Seq uint64
	Run Runner
}

// NewClock returns a clock at time zero with no pending events, whose
// Hop schedules events hop seconds after now. A negative hop panics: it
// would run the clock backwards.
func NewClock(hop Time) *Clock {
	if !(hop >= 0) {
		panic(fmt.Sprintf("sim: negative hop %v", hop))
	}
	return &Clock{hop: hop}
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// At schedules fn at absolute virtual time t. Scheduling in the past
// panics: it would make the simulation non-causal.
func (c *Clock) At(t Time, fn func()) { c.AtRun(t, runFunc(fn)) }

// AtRun schedules r.Run at absolute virtual time t. Semantics match At;
// passing a pooled Runner avoids the closure allocation.
func (c *Clock) AtRun(t Time, r Runner) {
	if t < c.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, c.now))
	}
	c.seq++
	c.push(event{at: t, seq: c.seq, run: r})
}

// After schedules fn d seconds from now.
func (c *Clock) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	c.At(c.now+d, fn)
}

// Hop schedules r.Run one hop (the NewClock argument) from now, on the
// hop lane: the same firing order as AtRun(Now()+hop, r), without the
// heap.
func (c *Clock) Hop(r Runner) {
	if c.n == len(c.lane) {
		c.growLane()
	}
	c.seq++
	*c.laneAt(c.n) = event{at: c.now + c.hop, seq: c.seq, run: r}
	c.n++
}

// laneAt returns the i-th slot of the hop lane from its head.
func (c *Clock) laneAt(i int) *event { return &c.lane[(c.head+i)&(len(c.lane)-1)] }

// growLane doubles the full ring, unwrapping it to start at index zero.
func (c *Clock) growLane() {
	lane := make([]event, max(2*len(c.lane), 64))
	k := copy(lane, c.lane[c.head:])
	copy(lane[k:], c.lane[:c.head])
	c.lane, c.head = lane, 0
}

// Pending returns the number of events still queued.
func (c *Clock) Pending() int { return len(c.heap) + c.n + len(c.deferred) }

// Step fires the next event, advancing the clock, and reports whether
// an event was fired. The event's slot is cleared before the callback
// runs, so a fired event retains nothing.
func (c *Clock) Step() bool { return c.fire(Time(math.Inf(1))) }

// Run fires events until none remain. maxEvents guards against runaway
// simulations; Run panics when it is exceeded.
func (c *Clock) Run(maxEvents int) {
	for i := 0; ; i++ {
		if i >= maxEvents {
			panic(fmt.Sprintf("sim: exceeded %d events; runaway simulation?", maxEvents))
		}
		if !c.Step() {
			return
		}
	}
}

// RunUntil fires events with timestamps <= deadline, then sets the clock
// to the deadline.
func (c *Clock) RunUntil(deadline Time) {
	for c.fire(deadline) {
	}
	if c.now < deadline {
		c.now = deadline
	}
}

// fire fires the next event, the smaller of the lane head and the heap
// top, if it is due by deadline, and reports whether it did.
func (c *Clock) fire(deadline Time) bool {
	if c.restored {
		c.flush()
	}
	var e event
	switch {
	case c.n > 0 && (len(c.heap) == 0 || c.lane[c.head].less(&c.heap[0])):
		h := &c.lane[c.head]
		if h.at > deadline {
			return false
		}
		e, *h = *h, event{}
		c.head = (c.head + 1) & (len(c.lane) - 1)
		c.n--
	case len(c.heap) > 0:
		if c.heap[0].at > deadline {
			return false
		}
		e = c.pop()
	default:
		return false
	}
	c.now = e.at
	e.run.Run()
	return true
}

// AppendPending appends a value copy of every pending event, of both
// lanes, to dst, in no particular order, and returns the extended slice
// together with the sequence counter (the number the latest scheduled
// event got). Restore takes both back.
func (c *Clock) AppendPending(dst []Event) ([]Event, uint64) {
	if c.restored {
		c.flush()
	}
	for i := range c.heap {
		e := &c.heap[i]
		dst = append(dst, Event{At: e.at, Seq: e.seq, Run: e.run})
	}
	for i := 0; i < c.n; i++ {
		e := c.laneAt(i)
		dst = append(dst, Event{At: e.at, Seq: e.seq, Run: e.run})
	}
	return dst, c.seq
}

// Restore sets the clock to time now with exactly the pending events
// evs, recorded by AppendPending from a clock whose counter stood at
// seq; whatever was queued before, in either lane, is dropped. The
// recorded events all go to the heap, so the lane only ever holds
// events Hop scheduled since, in order. base splits them: those
// numbered at most base are queued at once with their recorded
// numbers, and the counter restarts at base, so the events the caller
// schedules next are numbered as if scheduled when the counter stood
// at base. The rest are queued at the next Step, RunUntil or
// AppendPending, numbered past the caller's events in their recorded
// order, and the counter resumes past them. The restored clock
// therefore fires exactly like a run from time zero that scheduled the
// caller's events right after its base-th event, same-instant ties
// included. With base equal to seq it is a plain restore;
// Restore(0, 0, 0, nil) makes the clock indistinguishable from a new
// one.
func (c *Clock) Restore(now Time, seq, base uint64, evs []Event) {
	clear(c.heap)
	c.heap = c.heap[:0]
	for i := 0; i < c.n; i++ {
		*c.laneAt(i) = event{}
	}
	c.head, c.n = 0, 0
	clear(c.deferred)
	c.deferred = c.deferred[:0]
	c.now = now
	c.seq = base
	c.base, c.last = base, seq
	for _, ev := range evs {
		if ev.At < now {
			panic(fmt.Sprintf("sim: restoring event at %v before now %v", ev.At, now))
		}
		if ev.Seq <= base {
			c.queue(ev)
		} else {
			c.deferred = append(c.deferred, ev)
		}
	}
	c.restored = seq > base
}

// flush queues the events Restore deferred, shifted past the events
// scheduled since, and moves the counter past them.
func (c *Clock) flush() {
	shift := c.seq - c.base
	for _, ev := range c.deferred {
		ev.Seq += shift
		c.queue(ev)
	}
	clear(c.deferred)
	c.deferred = c.deferred[:0]
	c.seq = c.last + shift
	c.restored = false
}

// queue pushes a recorded event with its own time and number.
func (c *Clock) queue(ev Event) { c.push(event{at: ev.At, seq: ev.Seq, run: ev.Run}) }

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
