package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// runFunc carries a closure as a Runner, so the tests can schedule
// closures. A func value is one pointer, so the conversion does not
// allocate.
type runFunc func()

func (f runFunc) Run() { f() }

// At schedules fn at absolute virtual time t, as AtRun does.
func (c *Clock) At(t Time, fn func()) { c.AtRun(t, runFunc(fn)) }

// After schedules fn d seconds from now, as AfterRun does.
func (c *Clock) After(d Time, fn func()) { c.AfterRun(d, runFunc(fn)) }

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

func TestEventOrdering(t *testing.T) {
	c := NewClock(1)
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
	c := NewClock(1)
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
	c := NewClock(1)
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

func TestRunUntil(t *testing.T) {
	c := NewClock(1)
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
	c := NewClock(1)
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
	c := NewClock(1)
	for name, f := range map[string]func(){
		"After":    func() { c.After(-1, func() {}) },
		"NewClock": func() { NewClock(-0.05) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic for negative delay", name)
				}
			}()
			f()
		}()
	}
}

// TestNaNTimesPanic checks that every entry point rejects a NaN time:
// a NaN event compares false against every deadline, and RunUntil(NaN)
// would let self-rearming events fire forever.
func TestNaNTimesPanic(t *testing.T) {
	nan := Time(math.NaN())
	for _, tc := range []struct {
		name string
		f    func(c *Clock)
	}{
		{"NewClock", func(*Clock) { NewClock(1, nan) }},
		{"At", func(c *Clock) { c.At(nan, noop) }},
		{"AtRun", func(c *Clock) { c.AtRun(nan, &countRunner{}) }},
		{"After", func(c *Clock) { c.After(nan, noop) }},
		{"AfterRun", func(c *Clock) { c.AfterRun(nan, &countRunner{}) }},
		{"RunUntil", func(c *Clock) { c.RunUntil(nan) }},
		{"Inject", func(c *Clock) { c.Inject(nan, runFunc(noop)) }},
		{"Restore", func(c *Clock) { c.Restore(0, 1, []Event{{At: nan, Seq: 1, Run: &countRunner{}}}) }},
	} {
		c := NewClock(1)
		c.At(1, noop)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic for a NaN time", tc.name)
				}
			}()
			tc.f(c)
		}()
		if c.Pending() != 1 {
			t.Errorf("%s: %d events pending after the panic, want the 1 scheduled before", tc.name, c.Pending())
		}
	}
}

func TestRunawayGuard(t *testing.T) {
	c := NewClock(1)
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
	c := NewClock(1)
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
}

// countRunner is a pooled Runner that only counts its firings.
type countRunner struct{ n int }

func (r *countRunner) Run() { r.n++ }

func noop() {}

// TestEventRecycling verifies that steady-state scheduling does not
// allocate: once the heap and the lanes have grown, scheduling and
// firing an event allocates nothing on the heap, the hot lane or a
// cold lane, for a pooled Runner and for a closure that captures
// nothing.
func TestEventRecycling(t *testing.T) {
	c := NewClock(1, 5)
	r := &countRunner{}
	for i := 0; i < 256; i++ {
		c.AtRun(Time(i), r)
		c.AfterRun(1, r)
		c.AfterRun(5, r)
	}
	c.Run(1000) // warm up the heap and both lanes
	for name, cycle := range map[string]func(){
		"AtRun":    func() { c.AtRun(c.Now(), r); c.Step() },
		"hot lane": func() { c.AfterRun(1, r); c.Step() },
		"AfterRun": func() { c.AfterRun(5, r); c.Step() },
		"At":       func() { c.At(c.Now(), noop); c.Step() },
	} {
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Errorf("%s: schedule+fire allocates %v objects/op, want 0", name, allocs)
		}
	}
	// AllocsPerRun runs each cycle once more to warm up.
	if want := 3*256 + 3*101; r.n != want {
		t.Fatalf("runner fired %d times, want %d", r.n, want)
	}
}

// pooledRunner is a Runner for the AtRun path tests.
type pooledRunner struct {
	hits *[]Time
	c    *Clock
}

func (r *pooledRunner) Run() { *r.hits = append(*r.hits, r.c.Now()) }

// TestAtRun checks the closure-free Runner paths, AtRun and AfterRun on
// a lane, fire like At and interleave with closure events in (time,
// seq) order.
func TestAtRun(t *testing.T) {
	c := NewClock(3)
	var hits []Time
	r := &pooledRunner{hits: &hits, c: c}
	c.AtRun(2, r)
	c.At(1, func() { hits = append(hits, c.Now()) })
	c.AfterRun(3, r)
	c.Run(10)
	if len(hits) != 3 || hits[0] != 1 || hits[1] != 2 || hits[2] != 3 {
		t.Fatalf("hits = %v", hits)
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
	c := NewClock(1)
	first := run(c)
	c.At(20, func() { t.Error("leftover event fired after the reset") })
	c.Restore(0, 0, nil)
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

// TestClockRestore records a clock mid-run and restores it twice; each
// restored clock fires exactly like a run that was never recorded.
// Three failures tie at 5 with a heap event and a lane head recorded
// at 2 and with heap and lane events scheduled after the restore: the
// failures fire first, in the order they were injected, whether that
// was before the record, right after the restore or once running.
// Restore moves the recorded lane event to the heap, where it keeps
// its place.
func TestClockRestore(t *testing.T) {
	var got []string
	hit := func(s string) func() { return func() { got = append(got, s) } }
	prefix := func(c *Clock) {
		c.At(5, hit("heap"))
		c.At(2, func() { c.After(3, hit("lane")) })
		c.Inject(5, runFunc(hit("fail-early")))
	}
	rest := func(c *Clock) {
		c.At(5, hit("wave"))
		c.After(3, hit("wave-hop"))
		c.Inject(5, runFunc(hit("fail-wave")))
		c.At(2, func() {
			c.Inject(5, runFunc(hit("fail-late")))
			c.At(5, hit("late"))
			c.After(3, hit("late-hop"))
		})
		c.RunUntil(10)
	}
	want := []string{"fail-early", "fail-wave", "fail-late", "heap", "lane", "wave", "wave-hop", "late", "late-hop"}

	c := NewClock(3)
	prefix(c)
	c.RunUntil(2)
	rest(c)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unrecorded run fired %v, want %v", got, want)
	}

	c = NewClock(3)
	prefix(c)
	c.RunUntil(2)
	evs, seq := c.AppendPending(nil)
	if len(evs) != 3 || c.Pending() != 3 || c.LanePending(3) != 1 {
		t.Fatalf("recorded %d events, %d pending, %d on the lane", len(evs), c.Pending(), c.LanePending(3))
	}
	for round := 0; round < 2; round++ {
		got = nil
		c.Restore(2, seq, evs)
		if c.Now() != 2 || c.Pending() != 3 || c.LanePending(3) != 0 {
			t.Fatalf("round %d: now=%v, %d pending, %d on the lane", round, c.Now(), c.Pending(), c.LanePending(3))
		}
		rest(c)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: fired %v, want %v", round, got, want)
		}
	}
}
