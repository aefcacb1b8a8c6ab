package engine

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// Roles of a taskState field in the re-convergence splice, on a current
// primary. Any other role is the reason the field is excluded.
const (
	compared  = "compared"  // encodeTask digests it
	converged = "converged" // converged requires it false
)

// stateFields classifies every taskState field, replayState's
// included: encodeTask digests it, converged checks it, or it is
// excluded, because it is inert in a failure-free future, for the
// reason given. perturb changes the field on a live primary that is
// neither a source nor a sink.
var stateFields = map[string]struct {
	role    string
	perturb func(s *taskState)
}{
	"nextBatch":     {compared, func(s *taskState) { s.nextBatch++ }},
	"busyUntil":     {compared, func(s *taskState) { s.busyUntil += 1000 }},
	"procScheduled": {compared, func(s *taskState) { s.procScheduled = !s.procScheduled }},
	"win":           {compared, func(s *taskState) { s.win.rec(s.nextBatch).punctCount++ }},
	"outBuf":        {compared, func(s *taskState) { s.outBuf[0].put(s.nextBatch+1000, Batch{Count: 1}) }},
	"failed":        {converged, func(s *taskState) { s.failed = true }},
	"recovering":    {converged, func(s *taskState) { s.recovering = true }},
	"promoted":      {"read only when a later failure picks the failed nodes' tasks", func(s *taskState) { s.promoted = !s.promoted }},
	"epoch":         {"fences stale completions, which encodeEvents leaves out", func(s *taskState) { s.epoch++ }},
	"tentOut":       {"marks closed batches: read only by replays and amendments", func(s *taskState) { s.tentOut[s.nextBatch-1] = true }},
	"missIn":        {"marks closed batches: read only by late deliveries and restores", func(s *taskState) { s.missIn.add(s.nextBatch-1, ubits{1}) }},
	"ckptBound":     {"read only by replica trims and a source replica's take-over", func(s *taskState) { s.ckptBound[0]++ }},
	"ackBatch":      {"read only by a replica's take-over", func(s *taskState) { s.ackBatch++ }},
	"procCPU":       {"a counter no decision reads", func(s *taskState) { s.procCPU++ }},
	"ckptCPU":       {"a counter no decision reads", func(s *taskState) { s.ckptCPU++ }},
}

// engineFields classifies every Engine field by what Reset does with
// it: wiring New builds and nothing changes, the images themselves,
// state restored from the image, state Reset sets back, objects
// recycled across scenarios, and scratch buffers and pools, whose
// content carries no state between events.
var engineFields = map[string]string{
	"topo":         "wiring",
	"cfg":          "wiring",
	"sources":      "wiring",
	"operators":    "wiring",
	"strategy":     "wiring",
	"prim":         "wiring",
	"repl":         "wiring",
	"senderIdx":    "wiring",
	"img":          "image",
	"zero":         "image",
	"clock":        "imaged",
	"tick":         "imaged",
	"store":        "imaged",
	"sinks":        "imaged",
	"sinkAcct":     "imaged",
	"currentBatch": "imaged",
	"clus":         "reset",
	"tasks":        "reset",
	"replicas":     "reset",
	"master":       "reset",
	"failing":      "reset",
	"lastFailure":  "reset",
	"spliced":      "reset",
	"scratch":      "recycled",
	"witness":      "scratch",
	"enc":          "scratch",
	"snap":         "scratch",
	"pend":         "scratch",
	"hit":          "scratch",
	"tuples":       "pool",
	"procs":        "pool",
	"delivs":       "pool",
	"trims":        "pool",
	"amends":       "pool",
	"failures":     "pool",
}

// fieldNames lists the fields of a struct type, the fields of embedded
// structs in place of their own.
func fieldNames(t reflect.Type) []string {
	var names []string
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.Anonymous {
			names = append(names, fieldNames(f.Type)...)
		} else {
			names = append(names, f.Name)
		}
	}
	return names
}

// TestStateSchema checks the field tables: every field of taskState and
// Engine is classified, and nothing else is; DESIGN.md's "Re-convergence
// splice" names every compared or converged field in its "Compared
// state" list and every excluded one in its "Excluded" list; and on a
// converged engine, perturbing each field of a primary changes the
// task's digest exactly when the table says it is compared, while a
// converged field fails the convergence check all the same. Last, a
// copy of a state with every field perturbed equals it and shares no
// storage with it.
func TestStateSchema(t *testing.T) {
	for _, c := range []struct {
		typ   reflect.Type
		table map[string]bool
	}{
		{reflect.TypeOf(taskState{}), keys(stateFields)},
		{reflect.TypeOf(Engine{}), keys(engineFields)},
	} {
		for _, name := range fieldNames(c.typ) {
			if !c.table[name] {
				t.Errorf("%s.%s is not classified in schema_test.go", c.typ.Name(), name)
			}
			delete(c.table, name)
		}
		for name := range c.table {
			t.Errorf("schema_test.go classifies %s.%s, which does not exist", c.typ.Name(), name)
		}
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	section := func(from, to string) string {
		s := string(design)
		i := strings.Index(s, from)
		j := strings.Index(s[max(i, 0):], to)
		if i < 0 || j < 0 {
			t.Fatalf("DESIGN.md has no section from %q to %q", from, to)
		}
		return s[i : i+j]
	}
	comparedList := section("**Compared state.**", "**Excluded")
	excludedList := section("**Excluded", "**Digest and collision bound.**")
	for name, f := range stateFields {
		list, title := excludedList, "Excluded"
		if f.role == compared || f.role == converged {
			list, title = comparedList, "Compared state"
		}
		if !strings.Contains(list, "`"+name+"`") {
			t.Errorf("DESIGN.md's %q list does not name `%s` (%s)", title, name, f.role)
		}
	}

	e := newChainEngine(t, Config{CheckpointInterval: 5}, nil)
	e.Run(10)
	if err := e.Mark(); err != nil {
		t.Fatal(err)
	}
	tr, err := e.RecordTrajectory(40)
	if err != nil {
		t.Fatal(err)
	}
	e.Reset()
	const p = 12
	e.Run(tr.points[p].at)
	rt := e.tasks[2] // an operator A task: upstream a source, downstream the sink
	if rt.isSource || len(rt.outBuf) == 0 || len(rt.outBuf[0].items) == 0 || rt.tentOut == nil {
		t.Fatalf("task 2 at %v is no live intermediate task with buffered output; test misconfigured", tr.points[p].at)
	}
	want, ok := e.digestOf(int(rt.id))
	if !ok || !e.converged(tr, p) {
		t.Fatalf("failure-free engine at %v: digest encodable %v, converged %v; want both", tr.points[p].at, ok, e.converged(tr, p))
	}
	var saved taskState
	saved.copyFrom(&rt.taskState, &e.tuples)
	for name, f := range stateFields {
		f.perturb(&rt.taskState)
		got, _ := e.digestOf(int(rt.id))
		if changed := got != want; changed != (f.role == compared) {
			t.Errorf("perturbing %s (%s) changes the task's digest: %v", name, f.role, changed)
		}
		if f.role == compared || f.role == converged {
			if e.converged(tr, p) {
				t.Errorf("perturbing %s (%s) leaves the engine converged", name, f.role)
			}
		}
		rt.taskState.copyFrom(&saved, &e.tuples)
		if got, _ := e.digestOf(int(rt.id)); got != want || !e.converged(tr, p) {
			t.Fatalf("restoring the task's state after perturbing %s does not restore its digest", name)
		}
	}

	// A copy of a state with every field perturbed and a staged tuple
	// equals it and shares none of its storage.
	for _, f := range stateFields {
		f.perturb(&rt.taskState)
	}
	rt.stageInput(rt.win.rec(rt.nextBatch+1), 0, Batch{Count: 1, Tuples: []Tuple{{Key: "k"}}})
	var c taskState
	c.copyFrom(&rt.taskState, &e.tuples)
	if err := sameState(&c, &rt.taskState); err != nil {
		t.Errorf("a copy differs from its source: %v", err)
	}
	if p, ok := shared(reflect.ValueOf(c), reflect.ValueOf(rt.taskState)); ok {
		t.Errorf("a copy shares the storage of taskState%s with its source", p)
	}
}

func keys[V any](m map[string]V) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}
