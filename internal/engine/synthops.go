package engine

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// This file provides the reusable synthetic operators and sources used
// by the recovery-efficiency experiments (§VI-A) and the engine tests.

// CountSource emits a fixed number of unmaterialised tuples per batch —
// the constant-rate synthetic source of the Fig. 6 topology.
type CountSource struct {
	PerBatch int
}

// BatchAt implements SourceFunc.
func (s CountSource) BatchAt(int) Batch { return Batch{Count: s.PerBatch} }

// NewCountSourceFactory returns a SourceFactory emitting perBatch
// unmaterialised tuples per batch on every task.
func NewCountSourceFactory(perBatch int) SourceFactory {
	return func(int) SourceFunc { return CountSource{PerBatch: perBatch} }
}

// WindowCountOp is the synthetic operator of §VI-A: it maintains a
// sliding window over its input (state size equal to the input volume of
// the window interval) and forwards selectivity * input per batch.
// Tuples are counted, not materialised.
type WindowCountOp struct {
	WindowBatches int
	Selectivity   float64

	window []int // per-batch input counts, ring of WindowBatches entries
	seen   int   // batches processed
	acc    int   // current batch input count
}

// NewWindowCountFactory builds the factory for a synthetic windowed
// operator with the given window length (in batches) and selectivity.
func NewWindowCountFactory(windowBatches int, selectivity float64) OperatorFactory {
	return func(int) OperatorFunc {
		return &WindowCountOp{WindowBatches: windowBatches, Selectivity: selectivity}
	}
}

// ProcessBatch implements OperatorFunc.
func (o *WindowCountOp) ProcessBatch(batch, fromOp int, in Batch, emit Emitter) {
	o.acc += in.Count
}

// OnBatchEnd implements OperatorFunc: slide the window and emit the
// selectivity share of the batch input.
func (o *WindowCountOp) OnBatchEnd(batch int, emit Emitter) {
	if o.WindowBatches > 0 {
		if len(o.window) < o.WindowBatches {
			o.window = append(o.window, o.acc)
		} else {
			o.window[o.seen%o.WindowBatches] = o.acc
		}
	}
	o.seen++
	out := int(float64(o.acc) * o.Selectivity)
	o.acc = 0
	if out > 0 {
		emit.EmitCount(out)
	}
}

// Snapshot implements OperatorFunc. The state is the window header
// (batches seen, then one count per window slot); the tuples of the
// window are counted, not materialised, modelling the "state composed
// by the input data within the current window" of §VI-A, so checkpoint
// save/restore costs scale with rate x window.
func (o *WindowCountOp) Snapshot(buf []byte) ([]byte, int) {
	buf = slices.Grow(buf, 16+8*len(o.window))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(o.seen))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(o.window)))
	tuples := 0
	for _, c := range o.window {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
		tuples += c
	}
	return buf, tuples
}

// Restore implements OperatorFunc; Restore(nil) resets to initial state.
// The window's backing array is reused.
func (o *WindowCountOp) Restore(data []byte) error {
	o.window = o.window[:0]
	o.seen = 0
	o.acc = 0
	if data == nil {
		return nil
	}
	if len(data) < 16 {
		return fmt.Errorf("engine: window snapshot too short (%d bytes)", len(data))
	}
	o.seen = int(binary.LittleEndian.Uint64(data[0:]))
	n := int(binary.LittleEndian.Uint64(data[8:]))
	if n < 0 || n > (len(data)-16)/8 {
		return fmt.Errorf("engine: window snapshot truncated")
	}
	o.window = slices.Grow(o.window, n)[:n]
	for i := range o.window {
		o.window[i] = int(binary.LittleEndian.Uint64(data[16+8*i:]))
	}
	return nil
}

// PassthroughOp forwards every input tuple unchanged; counted input is
// forwarded as counts. Used in tests and as a trivial example operator.
type PassthroughOp struct{}

// NewPassthroughFactory builds the factory for PassthroughOp.
func NewPassthroughFactory() OperatorFactory {
	return func(int) OperatorFunc { return &PassthroughOp{} }
}

// ProcessBatch implements OperatorFunc.
func (o *PassthroughOp) ProcessBatch(batch, fromOp int, in Batch, emit Emitter) {
	for _, t := range in.Tuples {
		emit.Emit(t)
	}
	if extra := in.Count - len(in.Tuples); extra > 0 {
		emit.EmitCount(extra)
	}
}

// OnBatchEnd implements OperatorFunc.
func (o *PassthroughOp) OnBatchEnd(int, Emitter) {}

// Snapshot implements OperatorFunc (stateless).
func (o *PassthroughOp) Snapshot([]byte) ([]byte, int) { return nil, 0 }

// Restore implements OperatorFunc.
func (o *PassthroughOp) Restore([]byte) error { return nil }

// FuncSource adapts a function to SourceFunc.
type FuncSource func(b int) Batch

// BatchAt implements SourceFunc.
func (f FuncSource) BatchAt(b int) Batch { return f(b) }
