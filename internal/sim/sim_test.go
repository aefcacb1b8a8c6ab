package sim

import (
	"reflect"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	c := NewClock()
	var order []int
	c.At(2, func() { order = append(order, 2) })
	c.At(1, func() { order = append(order, 1) })
	c.At(3, func() { order = append(order, 3) })
	c.Run(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if c.Now() != 3 {
		t.Fatalf("Now = %v, want 3", c.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	c := NewClock()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.At(5, func() { order = append(order, i) })
	}
	c.Run(100)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events out of scheduling order: %v", order)
		}
	}
}

func TestAfterAndNesting(t *testing.T) {
	c := NewClock()
	var hits []Time
	c.After(1, func() {
		hits = append(hits, c.Now())
		c.After(2, func() { hits = append(hits, c.Now()) })
	})
	c.Run(100)
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestCancel(t *testing.T) {
	c := NewClock()
	fired := false
	timer := c.At(1, func() { fired = true })
	timer.Cancel()
	c.Run(100)
	if fired {
		t.Fatal("cancelled event fired")
	}
	var zero Timer
	zero.Cancel() // must not panic
}

func TestRunUntil(t *testing.T) {
	c := NewClock()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4} {
		at := at
		c.At(at, func() { fired = append(fired, at) })
	}
	c.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want events at 1 and 2", fired)
	}
	if c.Now() != 2.5 {
		t.Fatalf("Now = %v, want 2.5", c.Now())
	}
	c.Run(100)
	if len(fired) != 4 {
		t.Fatalf("fired = %v after Run", fired)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	c := NewClock()
	c.At(5, func() {})
	c.Run(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for past event")
		}
	}()
	c.At(1, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	c := NewClock()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative delay")
		}
	}()
	c.After(-1, func() {})
}

func TestRunawayGuard(t *testing.T) {
	c := NewClock()
	var loop func()
	loop = func() { c.After(1, loop) }
	c.After(1, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("expected runaway panic")
		}
	}()
	c.Run(50)
}

func TestPendingAndStep(t *testing.T) {
	c := NewClock()
	c.At(1, func() {})
	c.At(2, func() {})
	if c.Pending() != 2 {
		t.Fatalf("Pending = %d", c.Pending())
	}
	if !c.Step() || c.Now() != 1 {
		t.Fatal("Step misbehaved")
	}
	if !c.Step() || c.Now() != 2 {
		t.Fatal("second Step misbehaved")
	}
	if c.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestTimeFormatting(t *testing.T) {
	if Time(1.5).String() != "1.500s" {
		t.Errorf("String = %q", Time(1.5).String())
	}
	if Time(2).Millis() != 2000 {
		t.Errorf("Millis = %v", Time(2).Millis())
	}
}

// TestCancelRemovesFromHeap pins the eager-removal behaviour: a
// cancelled timer leaves the event heap immediately instead of
// lingering until popped, so Pending reflects live events only and a
// cancelled timer can never fire.
func TestCancelRemovesFromHeap(t *testing.T) {
	c := NewClock()
	var fired []int
	t1 := c.At(1, func() { fired = append(fired, 1) })
	c.At(2, func() { fired = append(fired, 2) })
	t3 := c.At(3, func() { fired = append(fired, 3) })
	if c.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", c.Pending())
	}
	// Cancel the head and a middle element: both leave the heap now.
	t1.Cancel()
	t3.Cancel()
	if c.Pending() != 1 {
		t.Fatalf("Pending after cancels = %d, want 1", c.Pending())
	}
	// Double-cancel is a no-op.
	t3.Cancel()
	c.Run(100)
	if len(fired) != 1 || fired[0] != 2 {
		t.Fatalf("fired = %v, want only event 2", fired)
	}
	if c.Now() != 2 {
		t.Fatalf("Now = %v; cancelled events must not advance the clock", c.Now())
	}
}

// TestCancelDuringDrain cancels a pending timer from inside an earlier
// event and checks RunUntil never fires it.
func TestCancelDuringDrain(t *testing.T) {
	c := NewClock()
	fired := false
	victim := c.At(2, func() { fired = true })
	c.At(1, func() { victim.Cancel() })
	c.RunUntil(10)
	if fired {
		t.Fatal("timer cancelled mid-drain still fired")
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", c.Pending())
	}
	// Cancelling after the drain (timer long gone) stays a no-op.
	victim.Cancel()
}

// TestCancelAfterFire verifies cancelling an already-fired timer does
// not disturb the remaining schedule.
func TestCancelAfterFire(t *testing.T) {
	c := NewClock()
	var fired []int
	t1 := c.At(1, func() { fired = append(fired, 1) })
	c.At(2, func() { fired = append(fired, 2) })
	if !c.Step() {
		t.Fatal("no first event")
	}
	t1.Cancel() // already fired: no-op
	c.Run(10)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want both events", fired)
	}
}

// TestStaleTimerHandle pins the generation fencing of recycled events:
// a Timer held across its event's firing must not cancel the unrelated
// event that later reuses the same slot.
func TestStaleTimerHandle(t *testing.T) {
	c := NewClock()
	var fired []int
	stale := c.At(1, func() { fired = append(fired, 1) })
	if !c.Step() {
		t.Fatal("no event")
	}
	// The slot of the fired event is recycled for the next schedule.
	c.At(2, func() { fired = append(fired, 2) })
	stale.Cancel() // stale handle: must be a no-op
	c.Run(10)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want both events (stale Cancel hit the recycled slot)", fired)
	}
}

// TestEventRecycling verifies the free list makes steady-state
// scheduling allocation-free: after warm-up, schedule+fire cycles do
// not allocate.
func TestEventRecycling(t *testing.T) {
	c := NewClock()
	tick := 0
	var loop func()
	loop = func() {
		tick++
		if tick < 2048 {
			c.After(1, loop)
		}
	}
	c.After(1, loop) // warm up the slab
	c.Run(5000)
	allocs := testing.AllocsPerRun(100, func() {
		c.At(c.Now(), func() {})
		c.Step()
	})
	// The closure itself may allocate; the kernel must not add event or
	// timer allocations on top.
	if allocs > 1 {
		t.Fatalf("schedule+fire allocates %v objects/op, want <= 1 (closure only)", allocs)
	}
}

// pooledRunner is a Runner for the AtRun path tests.
type pooledRunner struct {
	hits *[]Time
	c    *Clock
}

func (r *pooledRunner) Run() { *r.hits = append(*r.hits, r.c.Now()) }

// TestAtRun checks the closure-free Runner path fires like At and
// interleaves with closure events in (time, seq) order.
func TestAtRun(t *testing.T) {
	c := NewClock()
	var hits []Time
	r := &pooledRunner{hits: &hits, c: c}
	c.AtRun(2, r)
	c.At(1, func() { hits = append(hits, c.Now()) })
	c.AfterRun(3, r)
	c.Run(10)
	if len(hits) != 3 || hits[0] != 1 || hits[1] != 2 || hits[2] != 3 {
		t.Fatalf("hits = %v", hits)
	}
	tm := c.AtRun(5, r)
	tm.Cancel()
	c.Run(10)
	if len(hits) != 3 {
		t.Fatalf("cancelled Runner event fired: %v", hits)
	}
}

// TestClockReset verifies that restoring an empty image at time zero
// drops pending events, rewinds time and seq, and that the reset clock
// schedules bit-identically to a fresh one.
func TestClockReset(t *testing.T) {
	run := func(c *Clock) []Time {
		var hits []Time
		c.At(1, func() { hits = append(hits, c.Now()) })
		c.At(1, func() { hits = append(hits, c.Now()+0.5) })
		c.After(2, func() { hits = append(hits, c.Now()) })
		c.RunUntil(10)
		return hits
	}
	c := NewClock()
	first := run(c)
	c.At(20, func() { t.Error("leftover event fired after the reset") })
	c.Restore(0, 0, 0, nil)
	if c.Now() != 0 || c.Pending() != 0 {
		t.Fatalf("after the reset: now=%v pending=%d", c.Now(), c.Pending())
	}
	second := run(c)
	if len(first) != len(second) {
		t.Fatalf("reset run diverged: %v vs %v", first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("reset run diverged at %d: %v vs %v", i, first, second)
		}
	}
}

// TestClockRestore records a clock mid-run and restores it: recorded
// events numbered at most base keep their place ahead of the events
// scheduled after Restore, the later ones fire after them at the same
// instant, and events scheduled once running come last — the order a
// run from time zero gives when the caller's events are scheduled
// right after the base-th event.
func TestClockRestore(t *testing.T) {
	var got []string
	hit := func(s string) func() { return func() { got = append(got, s) } }
	c := NewClock()
	c.At(5, hit("armed"))
	c.At(1, func() { c.At(5, hit("prefix")) })
	c.RunUntil(2)
	evs, seq := c.AppendPending(nil)
	if len(evs) != 2 || c.Pending() != 2 {
		t.Fatalf("recorded %d events, %d pending", len(evs), c.Pending())
	}
	for round := 0; round < 2; round++ {
		got = nil
		c.Restore(2, seq, 2, evs)
		c.At(5, hit("wave"))
		c.At(3, func() { c.At(5, hit("late")) })
		if c.Now() != 2 || c.Pending() != 4 {
			t.Fatalf("round %d: now=%v pending=%d", round, c.Now(), c.Pending())
		}
		c.RunUntil(10)
		if want := []string{"armed", "wave", "prefix", "late"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: fired %v, want %v", round, got, want)
		}
	}
}
