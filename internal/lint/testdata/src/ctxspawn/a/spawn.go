// Fixture type-checked under example.com/internal/coord, matching the
// ctxspawn analyzer's scope.
package coord

import "context"

func spawnBare(work func()) {
	go work() // want "goroutine is spawned without a context"
}

func spawnBareLiteral(ch chan int) {
	go func() { // want "goroutine is spawned without a context"
		<-ch
	}()
}

func spawnCtxArg(ctx context.Context, work func(context.Context)) {
	go work(ctx)
}

func spawnClosure(ctx context.Context, ch chan int) {
	go func() {
		select {
		case <-ctx.Done():
		case <-ch:
		}
	}()
}

type worker struct{ ctx context.Context }

func spawnFieldCtx(w *worker) {
	go func() {
		<-w.ctx.Done()
	}()
}

func spawnAllowed(done chan struct{}) {
	//ppalint:allow ctxspawn bounded by the connection close unblocking the receive
	go func() {
		<-done
	}()
}

// A goroutine that now receives its context needs no suppression.
func spawnStaleAllow(ctx context.Context, work func(context.Context)) {
	//ppalint:allow ctxspawn the goroutine used to run without ctx // want "ppalint:allow ctxspawn suppresses nothing on this line"
	go work(ctx)
}
