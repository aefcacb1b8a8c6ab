// Package sim provides a minimal deterministic discrete-event simulation
// kernel: a virtual clock with an event heap. All recovery-latency
// experiments of the reproduction run on virtual time so that results
// are reproducible bit-for-bit and independent of host speed, replacing
// the paper's wall-clock EC2 measurements (see DESIGN.md §4).
//
// The kernel is allocation-free on the steady-state hot path: events are
// slab-allocated and recycled through a free list, so scheduling and
// cancelling reuse event objects instead of heap-allocating, and a
// fired or cancelled event drops its callback reference immediately —
// the heap retains nothing between events.
package sim

import (
	"fmt"
)

// Time is virtual time in seconds.
type Time float64

// Millis returns the time in whole milliseconds, for reporting.
func (t Time) Millis() float64 { return float64(t) * 1000 }

// String formats the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", float64(t)) }

// Runner is an event callback carried as an interface instead of a
// closure. Schedulers with a hot path (the engine's per-batch delivery
// events) implement Run on a pooled struct and pass it to AtRun /
// AfterRun, avoiding the per-event closure allocation of At / After.
type Runner interface {
	Run()
}

// Timer is a handle to a scheduled event, usable to cancel it. The zero
// Timer is valid and cancels nothing. Timers are values: they stay safe
// after their event fired and its slot was recycled for a later event —
// the generation check turns a stale Cancel into a no-op.
type Timer struct {
	clock *Clock
	ev    *event
	gen   uint32
}

// Cancel prevents the event from firing and removes it from the event
// heap immediately, so cancelled events neither linger in the queue nor
// retain their callbacks; the event object returns to the clock's free
// list. Cancelling a zero, already-fired or already-cancelled timer is
// a no-op.
func (t Timer) Cancel() {
	e := t.ev
	if e == nil || t.clock == nil || e.gen != t.gen || e.index < 0 {
		return
	}
	t.clock.remove(e.index)
	t.clock.recycle(e)
}

// event is one scheduled callback. Events live in clock-owned slabs and
// cycle through the free list; gen distinguishes incarnations of the
// same slot so stale Timer handles cannot cancel a recycled event.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	run   Runner
	index int32 // position in the heap; -1 when popped or free
	gen   uint32
}

// less orders events by time, then by scheduling order, so events at
// the same instant fire FIFO. (at, seq) pairs are unique, making the
// firing order independent of heap-internal tie-breaking.
func (e *event) less(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Clock is a deterministic discrete-event scheduler. Events scheduled
// for the same instant fire in scheduling order. Not safe for concurrent
// use: the whole simulation is single-threaded by design.
type Clock struct {
	now  Time
	heap []*event
	seq  uint64
	free []*event
	slab []event // bump-allocation tail of the current slab chunk

	// deferred holds the recorded events a Restore queues only at the
	// next step, numbered past the events scheduled in between; base is
	// the counter they are shifted from and last the recorded counter.
	// restored is set until that step.
	deferred   []Event
	base, last uint64
	restored   bool
}

// Event is a value copy of one pending event, as AppendPending reports
// it and Restore queues it again. Exactly one of Fn and Run is set.
type Event struct {
	At  Time
	Seq uint64
	Fn  func()
	Run Runner
}

// slabChunk is the number of events allocated per slab growth. Chunks
// amortise allocation during warm-up; after the first GC-free steady
// state is reached the free list recycles events indefinitely.
const slabChunk = 128

// NewClock returns a clock at time zero with no pending events.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// At schedules fn at absolute virtual time t. Scheduling in the past
// panics: it would make the simulation non-causal.
func (c *Clock) At(t Time, fn func()) Timer {
	e := c.schedule(t)
	e.fn = fn
	return Timer{clock: c, ev: e, gen: e.gen}
}

// AtRun schedules r.Run at absolute virtual time t. Semantics match At;
// passing a pooled Runner avoids the closure allocation.
func (c *Clock) AtRun(t Time, r Runner) Timer {
	e := c.schedule(t)
	e.run = r
	return Timer{clock: c, ev: e, gen: e.gen}
}

// After schedules fn d seconds from now.
func (c *Clock) After(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return c.At(c.now+d, fn)
}

// AfterRun schedules r.Run d seconds from now.
func (c *Clock) AfterRun(d Time, r Runner) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return c.AtRun(c.now+d, r)
}

// schedule pushes a new event onto the heap at time t with the next
// sequence number.
func (c *Clock) schedule(t Time) *event {
	if t < c.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, c.now))
	}
	c.seq++
	e := c.alloc()
	e.at = t
	e.seq = c.seq
	c.push(e)
	return e
}

// alloc takes an event from the free list, or from the slab.
func (c *Clock) alloc() *event {
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return e
	}
	if len(c.slab) == 0 {
		c.slab = make([]event, slabChunk)
	}
	e := &c.slab[0]
	c.slab = c.slab[1:]
	return e
}

// recycle clears an event's callback references and returns it to the
// free list. The generation bump invalidates outstanding Timer handles.
func (c *Clock) recycle(e *event) {
	e.fn = nil
	e.run = nil
	e.index = -1
	e.gen++
	c.free = append(c.free, e)
}

// Pending returns the number of events still queued. Cancelled events
// are removed from the queue eagerly and never counted.
func (c *Clock) Pending() int { return len(c.heap) + len(c.deferred) }

// Step fires the next event, advancing the clock, and reports whether
// an event was fired. The event's callback reference is cleared before
// the callback runs, so a fired event retains nothing.
func (c *Clock) Step() bool {
	if c.restored {
		c.flush()
	}
	if len(c.heap) == 0 {
		return false
	}
	e := c.pop()
	fn, run := e.fn, e.run
	c.recycle(e)
	c.now = e.at
	if run != nil {
		run.Run()
	} else {
		fn()
	}
	return true
}

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
	if c.restored {
		c.flush()
	}
	for len(c.heap) > 0 && c.heap[0].at <= deadline {
		c.Step()
	}
	if c.now < deadline {
		c.now = deadline
	}
}

// AppendPending appends a value copy of every pending event to dst, in
// no particular order, and returns the extended slice together with the
// sequence counter (the number the latest scheduled event got). Restore
// takes both back.
func (c *Clock) AppendPending(dst []Event) ([]Event, uint64) {
	if c.restored {
		c.flush()
	}
	for _, e := range c.heap {
		dst = append(dst, Event{At: e.at, Seq: e.seq, Fn: e.fn, Run: e.run})
	}
	return dst, c.seq
}

// Restore sets the clock to time now with exactly the pending events
// evs, recorded by AppendPending from a clock whose counter stood at
// seq; whatever was queued before is cancelled. base splits the
// recorded events. Those numbered at most base are queued at once with
// their recorded numbers, and the counter restarts at base, so the
// events the caller schedules next are numbered as if scheduled when
// the counter stood at base. The rest are queued at the next Step,
// RunUntil or AppendPending, numbered past the caller's events in their
// recorded order, and the counter resumes past them. The restored clock therefore
// fires exactly like a run from time zero that scheduled the caller's
// events right after its base-th event, same-instant ties included.
// With base equal to seq it is a plain restore; Restore(0, 0, 0, nil)
// makes the clock indistinguishable from a new one.
func (c *Clock) Restore(now Time, seq, base uint64, evs []Event) {
	for _, e := range c.heap {
		c.recycle(e)
	}
	c.heap = c.heap[:0]
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
func (c *Clock) queue(ev Event) {
	e := c.alloc()
	e.at, e.seq, e.fn, e.run = ev.At, ev.Seq, ev.Fn, ev.Run
	c.push(e)
}

// --- intrusive binary heap over (at, seq) ---

func (c *Clock) push(e *event) {
	e.index = int32(len(c.heap))
	c.heap = append(c.heap, e)
	c.up(len(c.heap) - 1)
}

func (c *Clock) pop() *event {
	h := c.heap
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[0].index = 0
	h[n] = nil
	c.heap = h[:n]
	if n > 0 {
		c.down(0)
	}
	e.index = -1
	return e
}

// remove deletes the event at heap position i.
func (c *Clock) remove(i int32) {
	h := c.heap
	n := len(h) - 1
	e := h[i]
	if int(i) != n {
		h[i] = h[n]
		h[i].index = i
	}
	h[n] = nil
	c.heap = h[:n]
	if int(i) < n {
		c.down(int(i))
		c.up(int(i))
	}
	e.index = -1
}

func (c *Clock) up(i int) {
	h := c.heap
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].index = int32(i)
		i = parent
	}
	h[i] = e
	e.index = int32(i)
}

func (c *Clock) down(i int) {
	h := c.heap
	n := len(h)
	e := h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && h[r].less(h[l]) {
			child = r
		}
		if !h[child].less(e) {
			break
		}
		h[i] = h[child]
		h[i].index = int32(i)
		i = child
	}
	h[i] = e
	e.index = int32(i)
}
