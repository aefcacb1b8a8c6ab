package engine

import (
	"fmt"
	"math"
	"reflect"
)

// CheckSpares re-initialises every spare incarnation of the engine, as
// recovery does when it takes one, requires it to share no storage with
// the time-zero image it copied, and compares it field by field with a
// runtime newTaskRuntime builds for the same task (see sameState and
// sameValue). A field that reinit leaves as the last scenario left it
// fails the check. CheckSpares returns the number of spares it checked.
func CheckSpares(e *Engine) (int, error) {
	n := 0
	for id, spares := range e.spare {
		for _, rt := range spares {
			rt.reinit()
			if p, ok := shared(reflect.ValueOf(rt.taskState), reflect.ValueOf(e.zero[id].taskState)); ok {
				return n, fmt.Errorf("task %d: a recycled incarnation and the time-zero image share the storage of taskState%s", id, p)
			}
			fresh := newTaskRuntime(e, rt.id, false)
			a, b := reflect.ValueOf(rt).Elem(), reflect.ValueOf(fresh).Elem()
			for i := 0; i < a.NumField(); i++ {
				var err error
				if name := a.Type().Field(i).Name; name == "taskState" {
					err = sameState(&rt.taskState, &fresh.taskState)
				} else {
					err = sameValue(a.Field(i), b.Field(i), name)
				}
				if err != nil {
					return n, fmt.Errorf("task %d: recycled incarnation differs from a new one: %v", id, err)
				}
			}
			n++
		}
	}
	return n, nil
}

// CheckImage compares an engine with its image, which it must equal
// right after Mark and after every Reset: every task's current primary
// and replica are the runtimes New built; each runtime's taskState
// equals the recorded one and shares no storage with it, its operator
// holds the recorded state and its emit scratch is empty; and the
// checkpoint store, the sink records and ledger and the batch counter
// equal the recorded ones. After Mark it checks that the image records
// everything, after Reset that the engine restores everything.
func CheckImage(e *Engine) error {
	img := &e.img
	for id := range e.tasks {
		if e.tasks[id] != e.prim[id] || e.replicas[id] != e.repl[id] {
			return fmt.Errorf("task %d: the current runtimes are not the ones New built", id)
		}
		for i, rt := range []*taskRuntime{e.prim[id], e.repl[id]} {
			if rt == nil {
				continue
			}
			im := &img.prim[id]
			if i == 1 {
				im = &img.repl[id]
			}
			if err := sameState(&rt.taskState, &im.taskState); err != nil {
				return fmt.Errorf("task %d (replica %v): %v", id, rt.isReplica, err)
			}
			if p, ok := shared(reflect.ValueOf(rt.taskState), reflect.ValueOf(im.taskState)); ok {
				return fmt.Errorf("task %d (replica %v): the runtime and its image share the storage of taskState%s", id, rt.isReplica, p)
			}
			if !rt.isSource {
				// A snapshot may encode a map in any order, so the
				// recorded one is compared as the state it restores.
				op := e.operators[rt.opIdx](rt.taskIndex)
				if err := op.Restore(im.op); err != nil {
					return fmt.Errorf("task %d: %v", id, err)
				}
				if err := sameValue(reflect.ValueOf(rt.udf), reflect.ValueOf(op), "udf"); err != nil {
					return fmt.Errorf("task %d (replica %v): %v", id, rt.isReplica, err)
				}
			}
			if err := emptyScratch(rt); err != nil {
				return fmt.Errorf("task %d (replica %v): %v", id, rt.isReplica, err)
			}
		}
		ck, want := &e.store[id], &img.store[id]
		if ck.taken != want.taken {
			return fmt.Errorf("task %d: checkpoint taken %v, the image's %v", id, ck.taken, want.taken)
		}
		if ck.taken {
			if err := sameValue(reflect.ValueOf(*ck), reflect.ValueOf(*want), "store"); err != nil {
				return fmt.Errorf("task %d: %v", id, err)
			}
		}
	}
	if err := sameValue(reflect.ValueOf(e.sinks), reflect.ValueOf(img.sinks), "sinks"); err != nil {
		return err
	}
	if err := sameValue(reflect.ValueOf(e.sinkAcct), reflect.ValueOf(img.sinkAcct), "sinkAcct"); err != nil {
		return err
	}
	if e.currentBatch != img.currentBatch {
		return fmt.Errorf("currentBatch %d, the image's %d", e.currentBatch, img.currentBatch)
	}
	return nil
}

// emptyScratch reports an error when the runtime's emit scratch holds
// anything: between events it is always empty.
func emptyScratch(rt *taskRuntime) error {
	for s, b := range rt.emitBuf {
		if b.Count != 0 || len(b.Tuples) != 0 {
			return fmt.Errorf("emit slot %d holds %+v", s, b)
		}
	}
	if len(rt.sinkOut) != 0 || rt.sinkCount != 0 {
		return fmt.Errorf("sink scratch holds %d tuples and a count of %d", len(rt.sinkOut), rt.sinkCount)
	}
	return nil
}

// sameState compares two task states field by field (see sameValue),
// the windows by their live records (sameWindow).
func sameState(a, b *taskState) error {
	if err := sameWindow(&a.win, &b.win); err != nil {
		return err
	}
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if name := va.Type().Field(i).Name; name != "win" {
			if err := sameValue(va.Field(i), vb.Field(i), name); err != nil {
				return err
			}
		}
	}
	return nil
}

// shared reports whether a and b share the storage of a slice or map,
// with the path from them to the first one: copyFrom never leaves one,
// since a write to one state would show in the other. The batches a
// replay queue holds are shared by design, since an emitted batch's
// tuples are never written again.
func shared(a, b reflect.Value) (path string, ok bool) {
	switch a.Kind() {
	case reflect.Slice:
		if a.Cap() > 0 && a.Pointer() == b.Pointer() {
			return "", true
		}
		for i := 0; i < min(a.Len(), b.Len()); i++ {
			if p, ok := shared(a.Index(i), b.Index(i)); ok {
				return fmt.Sprintf("[%d]%s", i, p), true
			}
		}
	case reflect.Map:
		return "", !a.IsNil() && a.Pointer() == b.Pointer()
	case reflect.Struct:
		switch a.Type() {
		case reflect.TypeOf(replayQueue{}):
			p, ok := shared(a.FieldByName("items").Slice(0, 0), b.FieldByName("items").Slice(0, 0))
			return ".items" + p, ok
		case reflect.TypeOf(batchWindow{}):
			// Rings of different sizes hold a batch in different slots:
			// each live record is matched with the other's by batch.
			ra, rb := a.FieldByName("recs"), b.FieldByName("recs")
			if p, ok := shared(ra.Slice(0, 0), rb.Slice(0, 0)); ok {
				return ".recs" + p, true
			}
			for i := 0; i < ra.Len(); i++ {
				r := ra.Index(i)
				bt := r.FieldByName("batch").Int()
				for j := 0; bt >= 0 && j < rb.Len(); j++ {
					if o := rb.Index(j); o.FieldByName("batch").Int() == bt {
						if p, ok := shared(r, o); ok {
							return fmt.Sprintf(".recs[batch %d]%s", bt, p), true
						}
					}
				}
			}
			return "", false
		}
		for i := 0; i < a.NumField(); i++ {
			if p, ok := shared(a.Field(i), b.Field(i)); ok {
				return "." + a.Type().Field(i).Name + p, true
			}
		}
	}
	return "", false
}

// sameWindow compares two batch windows of one task by their upstream
// count, base and live records, whatever the sizes of their rings, and
// requires every free record to be clear.
func sameWindow(a, b *batchWindow) error {
	if a.nup != b.nup || a.base != b.base {
		return fmt.Errorf("window: %d upstreams from batch %d, want %d from %d", a.nup, a.base, b.nup, b.base)
	}
	for _, w := range [][2]*batchWindow{{a, b}, {b, a}} {
		for i := range w[0].recs {
			r := &w[0].recs[i]
			if r.batch >= 0 {
				o := w[1].peek(r.batch)
				if o == nil {
					return fmt.Errorf("window: batch %d is open in only one of the windows", r.batch)
				}
				if err := sameValue(reflect.ValueOf(*r), reflect.ValueOf(*o), fmt.Sprintf("win[batch %d]", r.batch)); err != nil {
					return err
				}
				continue
			}
			if r.punctCount != 0 || r.punct.any() || r.taint.any() || r.miss.any() {
				return fmt.Errorf("free window record %d is not clear: %+v", i, *r)
			}
			for _, s := range r.staged {
				if s.Count != 0 || s.Tuples != nil {
					return fmt.Errorf("free window record %d stages %+v", i, s)
				}
			}
		}
	}
	return nil
}

// sameValue compares a and b recursively: slices and maps by content
// (nil equals empty, and capacity is ignored), pointers by identity or
// else by what they point to, functions by identity; path names the
// value in the error.
func sameValue(a, b reflect.Value, path string) error {
	if below, msg := diff(a, b); msg != "" {
		return fmt.Errorf("%s%s: %s", path, below, msg)
	}
	return nil
}

// diff returns "" when a and b are equal (see sameValue), and otherwise
// the path from them to a difference and what differs there.
func diff(a, b reflect.Value) (path, msg string) {
	differ := func() (string, string) { return "", fmt.Sprintf("%v, want %v", a, b) }
	switch a.Kind() {
	case reflect.Pointer:
		switch {
		case a.Pointer() == b.Pointer():
		case a.IsNil() || b.IsNil():
			return differ()
		default:
			return diff(a.Elem(), b.Elem())
		}
	case reflect.Interface:
		switch {
		case a.IsNil() || b.IsNil():
			if a.IsNil() != b.IsNil() {
				return differ()
			}
		case a.Elem().Type() != b.Elem().Type():
			return differ()
		default:
			return diff(a.Elem(), b.Elem())
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if p, m := diff(a.Field(i), b.Field(i)); m != "" {
				return "." + a.Type().Field(i).Name + p, m
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return "", fmt.Sprintf("length %d, want %d", a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if p, m := diff(a.Index(i), b.Index(i)); m != "" {
				return fmt.Sprintf("[%d]%s", i, p), m
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return "", fmt.Sprintf("%d entries, want %d", a.Len(), b.Len())
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return "", fmt.Sprintf("key %v, which the other lacks", k)
			}
			if p, m := diff(a.MapIndex(k), bv); m != "" {
				return fmt.Sprintf("[%v]%s", k, p), m
			}
		}
	case reflect.Func:
		if a.Pointer() != b.Pointer() {
			return differ()
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return differ()
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return differ()
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return differ()
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return differ()
		}
	case reflect.String:
		if a.String() != b.String() {
			return differ()
		}
	default:
		// Any other scalar: fmt prints equal scalars alike.
		if fmt.Sprint(a) != fmt.Sprint(b) {
			return differ()
		}
	}
	return "", ""
}

// PassthroughOp forwards every input tuple unchanged; counted input is
// forwarded as counts.
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
