package par

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapOrder(t *testing.T) {
	for _, workers := range []int{1, 4, 0} {
		got := Map(100, workers, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestEachCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 3, 0} {
		var hits [257]atomic.Int32
		Each(len(hits), workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, hits[i].Load())
			}
		}
	}
}

// TestEachErrSmallestIndex: the returned error is deterministically the
// one with the smallest index, at any worker count, even when a larger
// failing index is reached first.
func TestEachErrSmallestIndex(t *testing.T) {
	failing := map[int]bool{3: true, 7: true, 900: true}
	for _, workers := range []int{1, 2, 8, 0} {
		err := EachErrCtx(context.Background(), 1000, workers, func(i int) error {
			if failing[i] {
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 3" {
			t.Fatalf("workers=%d: err = %v, want index 3", workers, err)
		}
	}
}

// TestEachErrFailFast: after the first error, workers stop claiming
// new indices — a long run aborts promptly instead of draining the
// whole index space.
func TestEachErrFailFast(t *testing.T) {
	const n = 100_000
	var executed atomic.Int64
	boom := errors.New("boom")
	err := EachErrCtx(context.Background(), n, 8, func(i int) error {
		executed.Add(1)
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// Indices claimed before the stop flag flips are bounded by the
	// failing prefix plus in-flight workers (with generous slack).
	if got := executed.Load(); got > 1000 {
		t.Fatalf("%d of %d indices executed after an index-5 error", got, n)
	}
}

// TestEachErrCtxCancel: cancellation stops further claims and surfaces
// ctx.Err(), but an fn error observed before the cancellation wins.
func TestEachErrCtxCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var executed atomic.Int64
		err := EachErrCtx(ctx, 100_000, workers, func(i int) error {
			if executed.Add(1) == 50 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := executed.Load(); got > 1000 {
			t.Fatalf("workers=%d: %d indices executed after cancellation", workers, got)
		}
	}

	// Pre-cancelled context: nothing runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var executed atomic.Int64
	if err := EachErrCtx(ctx, 10, 4, func(int) error { executed.Add(1); return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if executed.Load() != 0 {
		t.Fatalf("%d indices executed with a pre-cancelled context", executed.Load())
	}

	// fn error beats the cancellation error.
	ctx2, cancel2 := context.WithCancel(context.Background())
	boom := errors.New("boom")
	err := EachErrCtx(ctx2, 1000, 4, func(i int) error {
		if i == 3 {
			cancel2()
			return boom
		}
		return nil
	})
	cancel2()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestEachErrNilError(t *testing.T) {
	var count atomic.Int64
	if err := EachErrCtx(context.Background(), 500, 4, func(int) error { count.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 500 {
		t.Fatalf("executed %d of 500", count.Load())
	}
}
