package engine

import "slices"

// This file provides the dense per-batch input state of a task: a
// windowed ring of batch records indexed by batch number, with the
// per-upstream punctuation/taint/miss flags held in bitsets over the
// compact upstream index and the staged input in a per-upstream Batch
// slice. It replaces the four nested map[int]map[topology.TaskID] maps
// that used to be rebuilt per batch on the engine hot path; records are
// recycled in place as the window slides, so steady-state batch
// processing allocates nothing.

// ubits is a bitset over the compact upstream indexes of one task.
type ubits []uint64

func newUbits(n int) ubits { return make(ubits, (n+63)/64) }

// set sets bit i and reports whether it was newly set.
func (b ubits) set(i int) bool {
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if b[w]&m != 0 {
		return false
	}
	b[w] |= m
	return true
}

// clear clears bit i and reports whether it was set.
func (b ubits) clear(i int) bool {
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if b[w]&m == 0 {
		return false
	}
	b[w] &^= m
	return true
}

func (b ubits) test(i int) bool { return b[i>>6]&(uint64(1)<<(uint(i)&63)) != 0 }

func (b ubits) any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

func (b ubits) reset() {
	for i := range b {
		b[i] = 0
	}
}

// batchRec is the input state of one open batch: the staged input and
// punctuation/taint/miss flags per upstream, indexed by the compact
// upstream index.
type batchRec struct {
	batch  int // batch number held by this slot; -1 when free
	staged []Batch
	punct  ubits
	taint  ubits
	miss   ubits
	// punctCount is the number of set punct bits, making the readiness
	// check O(1) instead of a scan over the upstreams.
	punctCount int
}

// batchWindow is the sliding window of open-batch records of one task.
// Records live in a power-of-two ring addressed by batch & mask; the
// window spans [base, base+len(recs)), growing on demand (a recovering
// task can have inputs staged far ahead of its own progress). Released
// records are cleared in place and reused, returning their staged tuple
// backing arrays to the engine's pool.
type batchWindow struct {
	nup  int
	base int // lowest batch that may hold a live record (== task nextBatch)
	recs []batchRec
}

const initialWindow = 8

func (w *batchWindow) init(nup int) {
	w.nup = nup
	w.base = 0
	if w.recs == nil {
		w.recs = make([]batchRec, initialWindow)
		for i := range w.recs {
			w.recs[i].batch = -1
		}
	}
}

// peek returns the record of batch b, or nil if none exists. It never
// creates a record.
func (w *batchWindow) peek(b int) *batchRec {
	if b < w.base || b-w.base >= len(w.recs) {
		return nil
	}
	r := &w.recs[b&(len(w.recs)-1)]
	if r.batch != b {
		return nil
	}
	return r
}

// rec returns the record of batch b (b >= base), creating it if needed.
func (w *batchWindow) rec(b int) *batchRec {
	if b-w.base >= len(w.recs) {
		w.grow(b - w.base + 1)
	}
	r := &w.recs[b&(len(w.recs)-1)]
	if r.batch == b {
		return r
	}
	// Free slot (the span check above makes a live collision impossible).
	r.batch = b
	if r.staged == nil {
		r.staged = make([]Batch, w.nup)
		r.punct = newUbits(w.nup)
		r.taint = newUbits(w.nup)
		r.miss = newUbits(w.nup)
	}
	return r
}

// grow resizes the ring to hold at least span batches, repositioning
// live records and redistributing the spare state of free slots.
func (w *batchWindow) grow(span int) {
	size := len(w.recs)
	for size < span {
		size *= 2
	}
	old := w.recs
	w.recs = make([]batchRec, size)
	for i := range w.recs {
		w.recs[i].batch = -1
	}
	var spare []batchRec // allocated state of free slots, reusable
	for i := range old {
		r := &old[i]
		if r.batch >= 0 {
			w.recs[r.batch&(size-1)] = *r
		} else if r.staged != nil {
			spare = append(spare, *r)
		}
	}
	// Hand the spare state to empty slots so it is not wasted.
	si := 0
	for i := range w.recs {
		if si >= len(spare) {
			break
		}
		if w.recs[i].batch == -1 && w.recs[i].staged == nil {
			s := spare[si]
			si++
			s.batch = -1
			w.recs[i] = s
		}
	}
}

// release clears the record of batch b in place, recycling the staged
// tuple backings into the pool, and advances the window base when b is
// the front.
func (w *batchWindow) release(b int, pool *tuplePool) {
	if r := w.peek(b); r != nil {
		for i := range r.staged {
			s := &r.staged[i]
			if s.Tuples != nil {
				pool.put(s.Tuples)
			}
			*s = Batch{}
		}
		r.punct.reset()
		r.taint.reset()
		r.miss.reset()
		r.punctCount = 0
		r.batch = -1
	}
	if b == w.base {
		w.base = b + 1
	}
}

// load copies a recorded record (see batchRec.clone) into the window,
// priming its staged tuple backings from the pool.
func (w *batchWindow) load(src *batchRec, pool *tuplePool) {
	r := w.rec(src.batch)
	for i, s := range src.staged {
		r.staged[i].Count = s.Count
		if len(s.Tuples) > 0 {
			r.staged[i].Tuples = append(pool.get(), s.Tuples...)
		}
	}
	copy(r.punct, src.punct)
	copy(r.taint, src.taint)
	copy(r.miss, src.miss)
	r.punctCount = src.punctCount
}

// clone returns a deep copy of the record: the staged tuples are copied
// out of their pooled backings, which are recycled when the batch closes.
func (r *batchRec) clone() batchRec {
	c := *r
	c.staged = make([]Batch, len(r.staged))
	for i, s := range r.staged {
		c.staged[i] = Batch{Count: s.Count, Tuples: slices.Clone(s.Tuples)}
	}
	c.punct = slices.Clone(r.punct)
	c.taint = slices.Clone(r.taint)
	c.miss = slices.Clone(r.miss)
	return c
}

// resetTo drops every record and rebases the window at batch.
func (w *batchWindow) resetTo(batch int, pool *tuplePool) {
	for i := range w.recs {
		r := &w.recs[i]
		if r.batch >= 0 {
			w.release(r.batch, pool)
		}
	}
	w.base = batch
}

// tuplePool recycles the backing arrays of staged input batches. A
// backing is returned to the pool when its batch record is released —
// after the batch was processed — which is safe because operators must
// not retain input slices past ProcessBatch (see OperatorFunc). The
// pool is per-engine and single-threaded like the simulation itself.
type tuplePool struct {
	free [][]Tuple
}

func (p *tuplePool) get() []Tuple {
	if n := len(p.free); n > 0 {
		t := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return t
	}
	return nil
}

func (p *tuplePool) put(t []Tuple) {
	if cap(t) == 0 {
		return
	}
	p.free = append(p.free, t[:0])
}
