package engine

import (
	"fmt"
	"reflect"
)

// CheckSpares re-initialises every spare incarnation of the engine, as
// recovery does when it takes one, and compares it field by field with
// a runtime newTaskRuntime builds for the same task. Slices and maps
// compare by content: nil equals empty, and capacity is ignored. The
// batch window compares by its base and its records, since a recycled
// window keeps the ring it grew: every record must be free and clear.
// A field that reinit leaves as the last scenario left it fails the
// check. CheckSpares returns the number of spares it checked.
func CheckSpares(e *Engine) (int, error) {
	n := 0
	for id, spares := range e.spare {
		for _, rt := range spares {
			rt.reinit(false)
			fresh := newTaskRuntime(e, rt.id, false)
			if err := sameWindow(&rt.win, &fresh.win); err != nil {
				return n, fmt.Errorf("task %d: %v", id, err)
			}
			a, b := reflect.ValueOf(rt).Elem(), reflect.ValueOf(fresh).Elem()
			for i := 0; i < a.NumField(); i++ {
				name := a.Type().Field(i).Name
				if name == "win" {
					continue
				}
				if err := sameValue(a.Field(i), b.Field(i), name); err != nil {
					return n, fmt.Errorf("task %d: recycled incarnation differs from a new one: %v", id, err)
				}
			}
			n++
		}
	}
	return n, nil
}

// sameWindow compares two batch windows of one task by their upstream
// count, base and records, requiring every record to be free and clear.
func sameWindow(a, b *batchWindow) error {
	if a.nup != b.nup || a.base != b.base {
		return fmt.Errorf("window: %d upstreams from batch %d, a new one %d from %d", a.nup, a.base, b.nup, b.base)
	}
	for _, w := range []*batchWindow{a, b} {
		for i := range w.recs {
			r := &w.recs[i]
			if r.batch != -1 || r.punctCount != 0 || r.punct.any() || r.taint.any() || r.miss.any() {
				return fmt.Errorf("window record %d holds batch %d: %+v", i, r.batch, *r)
			}
			for _, s := range r.staged {
				if s.Count != 0 || s.Tuples != nil {
					return fmt.Errorf("window record %d stages %+v", i, s)
				}
			}
		}
	}
	return nil
}

// sameValue compares a and b recursively (see CheckSpares); path names
// the value in the error.
func sameValue(a, b reflect.Value, path string) error {
	differ := func() error { return fmt.Errorf("%s: %v, a new incarnation %v", path, a, b) }
	switch a.Kind() {
	case reflect.Pointer:
		if a.Pointer() == b.Pointer() {
			return nil
		}
		if a.IsNil() || b.IsNil() {
			return differ()
		}
		return sameValue(a.Elem(), b.Elem(), "(*"+path+")")
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return differ()
			}
			return nil
		}
		if a.Elem().Type() != b.Elem().Type() {
			return differ()
		}
		return sameValue(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if err := sameValue(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); err != nil {
				return err
			}
		}
		return nil
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Errorf("%s: length %d, a new incarnation's %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if err := sameValue(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Errorf("%s: %d entries, a new incarnation's %d", path, a.Len(), b.Len())
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return fmt.Errorf("%s: key %v, which a new incarnation lacks", path, k)
			}
			if err := sameValue(a.MapIndex(k), bv, fmt.Sprintf("%s[%v]", path, k)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Func:
		if a.Pointer() != b.Pointer() {
			return differ()
		}
		return nil
	default:
		// A scalar: fmt prints equal scalars alike.
		if fmt.Sprint(a) != fmt.Sprint(b) {
			return differ()
		}
	}
	return nil
}
