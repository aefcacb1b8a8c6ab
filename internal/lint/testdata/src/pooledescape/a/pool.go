package a

import "sync"

type item struct{ n int }

var pool = sync.Pool{New: func() any { return new(item) }}

type holder struct{ it *item }

func useAfterPut() int {
	it := pool.Get().(*item)
	pool.Put(it)
	return it.n // want "it is used after its release"
}

func storeAfterPut(h *holder) {
	it := pool.Get().(*item)
	pool.Put(it)
	h.it = it // want "it is used after its release"
}

func captureAfterPut() func() int {
	it := pool.Get().(*item)
	pool.Put(it)
	return func() int { return it.n } // want "it is used after its release"
}

// Releasing after the last use is the correct discipline.
func okDiscipline() int {
	it := pool.Get().(*item)
	n := it.n
	pool.Put(it)
	return n
}

// A fresh Get refreshes the variable: later uses are fine.
func refreshOK() int {
	it := pool.Get().(*item)
	pool.Put(it)
	it = pool.Get().(*item)
	n := it.n
	pool.Put(it)
	return n
}

// First-party free lists follow the get/put naming of the engine's
// tuplePool; a release method on the value works too.
type recPool struct{ free []*item }

func (p *recPool) get() *item {
	if n := len(p.free); n > 0 {
		it := p.free[n-1]
		p.free = p.free[:n-1]
		return it
	}
	return new(item)
}

func (p *recPool) put(it *item) { p.free = append(p.free, it) }

func freeListUseAfterPut(p *recPool) int {
	it := p.get()
	p.put(it)
	return it.n // want "it is used after its release"
}

// A deferred Put runs at function exit, after every use.
func deferOK() int {
	it := pool.Get().(*item)
	defer pool.Put(it)
	return it.n
}

func suppressed() int {
	it := pool.Get().(*item)
	pool.Put(it)
	return it.n //ppalint:allow pooledescape fixture exercising suppression
}

// A directive left behind after the release moved below the last use
// suppresses nothing and is reported.
func staleAllow() int {
	it := pool.Get().(*item)
	n := it.n //ppalint:allow pooledescape the release used to sit above // want "ppalint:allow pooledescape suppresses nothing on this line"
	pool.Put(it)
	return n
}
