package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// scheduler is the clock surface the randomized test drives, shared by
// Clock and the reference.
type scheduler interface {
	Now() Time
	At(t Time, fn func())
	AtRun(t Time, r Runner)
	AfterRun(d Time, r Runner)
	Step() bool
	RunUntil(deadline Time)
	Pending() int
	AppendPending(dst []Event) ([]Event, uint64)
	Restore(now Time, seq, base uint64, evs []Event)
}

// refClock is the reference: one unsorted list of events, fired by a
// linear scan for the smallest (at, seq). AfterRun is plain AtRun at
// now+d. Restore defers and renumbers as Clock.Restore documents.
type refClock struct {
	now        Time
	seq        uint64
	evs        []Event
	deferred   []Event
	base, last uint64
	restored   bool
}

func (r *refClock) Now() Time                 { return r.now }
func (r *refClock) At(t Time, fn func())      { r.AtRun(t, runFunc(fn)) }
func (r *refClock) AfterRun(d Time, x Runner) { r.AtRun(r.now+d, x) }
func (r *refClock) Pending() int              { return len(r.evs) + len(r.deferred) }
func (r *refClock) Step() bool                { return r.fire(Time(math.Inf(1))) }

func (r *refClock) AtRun(t Time, x Runner) {
	r.seq++
	r.evs = append(r.evs, Event{At: t, Seq: r.seq, Run: x})
}

func (r *refClock) RunUntil(deadline Time) {
	for r.fire(deadline) {
	}
	r.now = max(r.now, deadline)
}

func (r *refClock) fire(deadline Time) bool {
	r.flush()
	if len(r.evs) == 0 {
		return false
	}
	next := 0
	for i, e := range r.evs {
		if n := r.evs[next]; e.At < n.At || e.At == n.At && e.Seq < n.Seq {
			next = i
		}
	}
	e := r.evs[next]
	if e.At > deadline {
		return false
	}
	r.evs = slices.Delete(r.evs, next, next+1)
	r.now = e.At
	e.Run.Run()
	return true
}

func (r *refClock) AppendPending(dst []Event) ([]Event, uint64) {
	r.flush()
	return append(dst, r.evs...), r.seq
}

func (r *refClock) Restore(now Time, seq, base uint64, evs []Event) {
	r.now, r.seq, r.base, r.last = now, base, base, seq
	r.evs, r.deferred = nil, nil
	for _, ev := range evs {
		if ev.Seq <= base {
			r.evs = append(r.evs, ev)
		} else {
			r.deferred = append(r.deferred, ev)
		}
	}
	r.restored = seq > base
}

func (r *refClock) flush() {
	if !r.restored {
		return
	}
	shift := r.seq - r.base
	for _, ev := range r.deferred {
		ev.Seq += shift
		r.evs = append(r.evs, ev)
	}
	r.deferred = nil
	r.seq = r.last + shift
	r.restored = false
}

// world is one clock under the randomized test with the log of the
// events it fired. Events are numbered in scheduling order, so two
// worlds that fire alike number their events alike. delays are the
// clock's lane delays, as passed to NewClock.
type world struct {
	clk    scheduler
	delays []Time
	log    []int
	next   int
}

func (w *world) probe() *probe {
	w.next++
	return &probe{w: w, id: w.next}
}

// probe is a test event: it logs its number and, depending on it,
// schedules a follow-up on a lane, at a delay that may or may not have
// a lane, or at an absolute time on the heap.
type probe struct {
	w  *world
	id int
}

const grid = Time(0.25)

func (p *probe) Run() {
	w := p.w
	w.log = append(w.log, p.id)
	switch p.id % 5 {
	case 0, 1:
		w.clk.AfterRun(w.delays[p.id%len(w.delays)], w.probe())
	case 2:
		w.clk.AtRun(w.clk.Now()+grid*Time(p.id%3), w.probe())
	case 3:
		w.clk.AfterRun(grid*Time(p.id%7), w.probe())
	}
}

// pendingKey lists recorded events as (time, number, probe) triples,
// sorted by number; a closure scheduled with At has probe 0.
func pendingKey(evs []Event) []string {
	out := make([]string, len(evs))
	slices.SortFunc(evs, func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) })
	for i, ev := range evs {
		id := 0
		if p, ok := ev.Run.(*probe); ok {
			id = p.id
		}
		out[i] = fmt.Sprintf("%v/%d/%d", ev.At, ev.Seq, id)
	}
	return out
}

// heads returns the time of the next event of the heap and of every
// non-empty lane, keyed by lane index (-1 for the heap).
func heads(c *Clock) map[int]Time {
	out := map[int]Time{}
	if len(c.heap) > 0 {
		out[-1] = c.heap[0].at
	}
	for i := range c.lanes {
		if l := &c.lanes[i]; l.n > 0 {
			out[i] = l.front().at
		}
	}
	return out
}

// wantCold is the cold-lane cache recomputed from scratch.
func wantCold(c *Clock) int {
	cold := 0
	for i := 1; i < len(c.lanes); i++ {
		if l := &c.lanes[i]; l.n > 0 && (cold == 0 || l.front().less(c.lanes[cold].front())) {
			cold = i
		}
	}
	return cold
}

// TestLanesMatchReference drives the laned clock and the reference
// through random sequences of At, AtRun, AfterRun, Step, RunUntil and
// record/restore cycles, and requires the same firing order, time,
// pending count and recorded events after every operation, and a cold
// lane cache equal to one recomputed from scratch. Every seed builds the
// clock with its own set of 1 to 4 lane delays on a coarse time grid,
// so sets repeat a delay or include a zero delay, AfterRun hits lane
// and non-lane delays alike, and lane and heap events tie at one
// instant all the time; the test counts those ties and the sets.
func TestLanesMatchReference(t *testing.T) {
	var heapLaneTies, laneLaneTies, dupSets, zeroSets, laneCap int
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		delays := make([]Time, 1+rng.Intn(4))
		for i := range delays {
			delays[i] = grid * Time(rng.Intn(5))
		}
		if slices.Contains(delays, 0) {
			zeroSets++
		}
		distinct := slices.Clone(delays)
		slices.Sort(distinct)
		if len(slices.Compact(distinct)) < len(delays) {
			dupSets++
		}
		clk := NewClock(delays...)
		a := &world{clk: clk, delays: delays}
		b := &world{clk: &refClock{}, delays: delays}
		worlds := []*world{a, b}
		type image struct {
			now  Time
			seq  uint64
			evs  [2][]Event
			base uint64
		}
		var img *image
		for step := 0; step < 400; step++ {
			op := rng.Intn(10)
			k := rng.Intn(5)
			switch op {
			case 0:
				for _, w := range worlds {
					p := w.probe()
					w.clk.At(w.clk.Now()+grid*Time(k), p.Run)
				}
			case 1:
				d := grid * Time(rng.Intn(7)) // a lane delay or not
				for _, w := range worlds {
					w.clk.AtRun(w.clk.Now()+grid*Time(k), w.probe())
					w.clk.AfterRun(d, w.probe())
				}
			case 2, 3:
				d := delays[rng.Intn(len(delays))]
				for _, w := range worlds {
					for i := 0; i < 1+k*k; i++ { // bursts grow and wrap the rings
						w.clk.AfterRun(d, w.probe())
					}
				}
			case 4, 5:
				hs := heads(clk)
				first := Time(math.Inf(1))
				for _, at := range hs {
					first = min(first, at)
				}
				lanes := 0
				for i, at := range hs {
					if at == first && i >= 0 {
						lanes++
					}
				}
				if at, ok := hs[-1]; ok && at == first && lanes > 0 {
					heapLaneTies++
				}
				if lanes > 1 {
					laneLaneTies++
				}
				if fa, fb := a.clk.Step(), b.clk.Step(); fa != fb {
					t.Fatalf("seed %d step %d: Step fired %v, reference %v", seed, step, fa, fb)
				}
			case 6, 7:
				d := a.clk.Now() + grid*Time(k)
				for _, w := range worlds {
					w.clk.RunUntil(d)
				}
			case 8:
				im := &image{now: a.clk.Now()}
				for i, w := range worlds {
					var seq uint64
					im.evs[i], seq = w.clk.AppendPending(nil)
					if i == 0 {
						im.seq = seq
					} else if seq != im.seq {
						t.Fatalf("seed %d step %d: recorded counter %d, reference %d", seed, step, im.seq, seq)
					}
				}
				if ka, kb := pendingKey(slices.Clone(im.evs[0])), pendingKey(slices.Clone(im.evs[1])); !reflect.DeepEqual(ka, kb) {
					t.Fatalf("seed %d step %d: recorded\n%v\nreference\n%v", seed, step, ka, kb)
				}
				im.base = uint64(rng.Int63n(int64(im.seq) + 1))
				img = im
			case 9:
				if img == nil {
					continue
				}
				for i, w := range worlds {
					w.clk.Restore(img.now, img.seq, img.base, img.evs[i])
				}
			}
			if !reflect.DeepEqual(a.log, b.log) {
				t.Fatalf("seed %d step %d (op %d): fired\n%v\nreference\n%v", seed, step, op, a.log, b.log)
			}
			if a.clk.Now() != b.clk.Now() || a.clk.Pending() != b.clk.Pending() {
				t.Fatalf("seed %d step %d (op %d): now %v pending %d, reference now %v pending %d",
					seed, step, op, a.clk.Now(), a.clk.Pending(), b.clk.Now(), b.clk.Pending())
			}
			if want := wantCold(clk); clk.cold != want {
				t.Fatalf("seed %d step %d (op %d): cold lane %d, recomputed %d", seed, step, op, clk.cold, want)
			}
		}
		for _, w := range worlds {
			w.clk.RunUntil(w.clk.Now() + 100*grid)
		}
		for i := range clk.lanes {
			laneCap = max(laneCap, len(clk.lanes[i].ring))
		}
		if !reflect.DeepEqual(a.log, b.log) {
			t.Fatalf("seed %d drain: fired\n%v\nreference\n%v", seed, a.log, b.log)
		}
	}
	if heapLaneTies < 1000 || laneLaneTies < 400 || dupSets < 10 || zeroSets < 10 || laneCap < 128 {
		t.Fatalf("%d steps had a lane head tied with the heap top and %d two lane heads tied, "+
			"%d lane sets repeated a delay and %d had a zero delay, and a lane grew to %d; "+
			"want 1000, 400, 10, 10 and 128", heapLaneTies, laneLaneTies, dupSets, zeroSets, laneCap)
	}
}

// Delays of BenchmarkClockStep's lanes: the engine's network delay and
// its checkpoint and heartbeat/replica-ack intervals.
const (
	benchHop        = Time(0.05)
	benchCheckpoint = Time(15)
	benchHeartbeat  = Time(5)
)

// benchTicker is a self-rearming event of BenchmarkClockStep. A batch
// ticker re-arms on the heap and schedules one or two hop events, three
// times in seven two, as a batch completion does its deliveries; a
// timer re-arms on the lane of its period and schedules nothing.
type benchTicker struct {
	c      *Clock
	period Time
	timer  bool
	k      *int
	hop    *countRunner
}

func (bt *benchTicker) Run() {
	if bt.timer {
		bt.c.AfterRun(bt.period, bt)
		return
	}
	*bt.k++
	bt.c.AfterRun(benchHop, bt.hop)
	if *bt.k%7 < 3 {
		bt.c.AfterRun(benchHop, bt.hop)
	}
	bt.c.AtRun(bt.c.Now()+bt.period, bt)
}

// BenchmarkClockStep measures the kernel alone on an event mix shaped
// like a medium-preset campaign: 24 batch tickers on the heap (periods
// scattered around 0.25 s, as batch completions are), each scheduling
// 10 hop events per 7 firings, and 76 timers on two lanes (58
// checkpoints every 15 s and 18 heartbeat and replica-ack timers every
// 5 s, at scattered offsets). Of the fired events 57% come from the hop
// lane, 40% from the heap and 3% from the timer lanes, as in the
// engine. One op is one fired event.
func BenchmarkClockStep(b *testing.B) {
	c := NewClock(benchHop, benchCheckpoint, benchHeartbeat)
	k := 0
	hop := &countRunner{}
	for i := 0; i < 100; i++ {
		frac := float64(i+1) * 0.6180339887498949
		frac -= math.Floor(frac)
		bt := &benchTicker{c: c, k: &k, hop: hop}
		switch {
		case i < 24:
			bt.period = Time(0.125 + 0.25*frac)
		case i < 82:
			bt.period, bt.timer = benchCheckpoint, true
		default:
			bt.period, bt.timer = benchHeartbeat, true
		}
		c.AtRun(bt.period*Time(frac), bt)
	}
	for i := 0; i < 10000; i++ {
		c.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}
