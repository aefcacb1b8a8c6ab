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
	Hop(r Runner)
	Step() bool
	RunUntil(deadline Time)
	Pending() int
	AppendPending(dst []Event) ([]Event, uint64)
	Restore(now Time, seq, base uint64, evs []Event)
}

// refClock is the reference: one unsorted list of events, fired by a
// linear scan for the smallest (at, seq). Hop is plain AtRun at
// now+hop. Restore defers and renumbers as Clock.Restore documents.
type refClock struct {
	now, hop   Time
	seq        uint64
	evs        []Event
	deferred   []Event
	base, last uint64
	restored   bool
}

func (r *refClock) Now() Time            { return r.now }
func (r *refClock) At(t Time, fn func()) { r.AtRun(t, runFunc(fn)) }
func (r *refClock) Hop(x Runner)         { r.AtRun(r.now+r.hop, x) }
func (r *refClock) Pending() int         { return len(r.evs) + len(r.deferred) }
func (r *refClock) Step() bool           { return r.fire(Time(math.Inf(1))) }

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
// worlds that fire alike number their events alike.
type world struct {
	clk  scheduler
	log  []int
	next int
}

func (w *world) probe() *probe {
	w.next++
	return &probe{w: w, id: w.next}
}

// probe is a test event: it logs its number and, depending on it,
// schedules a follow-up on the hop lane or on the heap.
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
		w.clk.Hop(w.probe())
	case 2:
		w.clk.AtRun(w.clk.Now()+grid*Time(p.id%3), w.probe())
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

// TestTwoLaneMatchesReference drives the two-lane clock and the
// reference through random sequences of At, AtRun, Hop, Step, RunUntil
// and record/restore cycles, and requires the same firing order, time,
// pending count and recorded events after every operation. Times lie on
// a coarse grid and the hop is a grid multiple, so lane and heap events
// tie at one instant all the time; the test counts those ties.
func TestTwoLaneMatchesReference(t *testing.T) {
	ties, laneCap := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		hop := grid * Time(1+seed%3)
		clk := NewClock(hop)
		a := &world{clk: clk}
		b := &world{clk: &refClock{hop: hop}}
		worlds := []*world{a, b}
		rng := rand.New(rand.NewSource(seed))
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
				for _, w := range worlds {
					w.clk.AtRun(w.clk.Now()+grid*Time(k), w.probe())
				}
			case 2, 3:
				for _, w := range worlds {
					for i := 0; i < 1+k*k; i++ { // bursts grow and wrap the ring
						w.clk.Hop(w.probe())
					}
				}
			case 4, 5:
				if clk.n > 0 && len(clk.heap) > 0 && clk.lane[clk.head].at == clk.heap[0].at {
					ties++
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
		}
		for _, w := range worlds {
			w.clk.RunUntil(w.clk.Now() + 100*grid)
		}
		laneCap = max(laneCap, len(clk.lane))
		if !reflect.DeepEqual(a.log, b.log) {
			t.Fatalf("seed %d drain: fired\n%v\nreference\n%v", seed, a.log, b.log)
		}
	}
	if ties < 100 || laneCap < 128 {
		t.Fatalf("%d steps had a lane event tied with the heap top, and the lane grew to %d; want 100 and 128", ties, laneCap)
	}
}

// benchTicker is a self-rearming heap event of BenchmarkClockStep. Each
// firing schedules one or two hop events, three times in seven two.
type benchTicker struct {
	c      *Clock
	period Time
	k      *int
	hop    *countRunner
}

func (bt *benchTicker) Run() {
	*bt.k++
	bt.c.Hop(bt.hop)
	if *bt.k%7 < 3 {
		bt.c.Hop(bt.hop)
	}
	bt.c.AtRun(bt.c.Now()+bt.period, bt)
}

// BenchmarkClockStep measures the kernel alone on an event mix shaped
// like a medium-preset campaign: 100 heap events pending at all times
// (self-rearming tickers of scattered periods, as batch completions,
// heartbeats and checkpoints are) and 10 hop events per 7 heap events,
// so 59% of the fired events come from the hop lane, as the engine's
// deliveries and trims do. One op is one fired event.
func BenchmarkClockStep(b *testing.B) {
	c := NewClock(0.05)
	k := 0
	hop := &countRunner{}
	for i := 0; i < 100; i++ {
		frac := float64(i+1) * 0.6180339887498949
		frac -= math.Floor(frac)
		bt := &benchTicker{c: c, period: Time(0.5 + frac), k: &k, hop: hop}
		c.AtRun(Time(frac), bt)
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
