// Package par provides the repo's deterministic worker pool: an atomic
// cursor over a fixed index space. Each index is computed independently
// and lands at its own slot, so callers that merge results in index
// order observe output identical to a sequential loop — the correlation
// planners and the failure-campaign runner both rely on this for
// bit-identical results at any worker count.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Map computes fn(i) for every i in [0, n) on up to workers goroutines
// and returns the results in index order. workers <= 0 selects
// GOMAXPROCS; workers == 1 runs inline.
func Map[T any](n, workers int, fn func(int) T) []T {
	out := make([]T, n)
	Each(n, workers, func(i int) { out[i] = fn(i) })
	return out
}

// EachErrCtx runs fn(i) for every i in [0, n) on up to workers
// goroutines and fails fast: after any fn returns a non-nil error, no
// further index is claimed; indices already claimed still run to
// completion. Because the cursor claims indices in ascending order,
// every index below the first failing one has executed, so the returned
// error is deterministically the one with the smallest index regardless
// of the worker count. workers <= 0 selects GOMAXPROCS; workers == 1
// runs inline (and stops at the first error).
//
// Once ctx is done, no further index is claimed either (indices already
// claimed still run to completion) and ctx.Err() is returned unless
// some fn failed first — an fn error always wins over the cancellation
// error, preserving the smallest-failing-index determinism.
func EachErrCtx(ctx context.Context, n, workers int, fn func(int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup

		mu       sync.Mutex
		firstIdx int
		firstErr error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil || i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Each runs fn(i) for every i in [0, n) on up to workers goroutines.
// workers <= 0 selects GOMAXPROCS; workers == 1 runs inline.
func Each(n, workers int, fn func(int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
