package mctree

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

// fullChain builds a chain of k operators with the given parallelisms,
// all connected with Full partitioning.
func fullChain(parallelism ...int) *topology.Topology {
	b := topology.NewBuilder()
	prev := b.AddSource("O0", parallelism[0], 100)
	for i := 1; i < len(parallelism); i++ {
		op := b.AddOperator("O", parallelism[i], topology.Independent, 1)
		b.Connect(prev, op, topology.Full)
		prev = op
	}
	topo, err := b.Build()
	if err != nil {
		panic(err)
	}
	return topo
}

// TestFullChainCount verifies §IV-C: for a sequence of k operators all
// using Full partitioning, the number of MC-trees equals the product of
// the operator parallelisms.
func TestFullChainCount(t *testing.T) {
	cases := [][]int{{2, 2}, {2, 3, 2}, {4, 1, 3}, {2, 2, 2, 2}}
	for _, par := range cases {
		topo := fullChain(par...)
		want := 1.0
		for _, p := range par {
			want *= float64(p)
		}
		if got := Count(topo); got != want {
			t.Errorf("Count(%v) = %v, want %v", par, got, want)
		}
		trees, err := Enumerate(topo, 10000)
		if err != nil {
			t.Fatal(err)
		}
		if len(trees) != int(want) {
			t.Errorf("Enumerate(%v) found %d trees, want %d", par, len(trees), int(want))
		}
		// Every tree has exactly one task per operator.
		for _, tr := range trees {
			if len(tr.Tasks) != len(par) {
				t.Errorf("tree %v has %d tasks, want %d", tr.Tasks, len(tr.Tasks), len(par))
			}
		}
	}
}

// diamondTopo builds the Fig. 1 style shape: two source operators
// feeding O3 (kind selectable), which feeds O4.
func diamondTopo(kind topology.InputKind, p1, p2, p3, p4 int) *topology.Topology {
	b := topology.NewBuilder()
	o1 := b.AddSource("O1", p1, 100)
	o2 := b.AddSource("O2", p2, 100)
	o3 := b.AddOperator("O3", p3, kind, 1)
	o4 := b.AddOperator("O4", p4, topology.Independent, 1)
	b.Connect(o1, o3, topology.Full)
	b.Connect(o2, o3, topology.Full)
	b.Connect(o3, o4, topology.Full)
	topo, err := b.Build()
	if err != nil {
		panic(err)
	}
	return topo
}

// TestDiamondSemantics checks the Fig. 1 discussion: with an
// independent-input O3 an MC-tree contains one source task from either
// O1 or O2; with a correlated-input O3 it must contain one task from
// each of O1 and O2.
func TestDiamondSemantics(t *testing.T) {
	indep := diamondTopo(topology.Independent, 2, 2, 1, 1)
	trees, err := Enumerate(indep, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 4 { // one of 4 source tasks + o3 + o4
		t.Fatalf("independent: %d trees, want 4", len(trees))
	}
	for _, tr := range trees {
		if len(tr.Tasks) != 3 {
			t.Errorf("independent tree %v should have 3 tasks", tr.Tasks)
		}
	}

	corr := diamondTopo(topology.Correlated, 2, 2, 1, 1)
	trees, err = Enumerate(corr, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 4 { // 2 choices from O1 x 2 from O2
		t.Fatalf("correlated: %d trees, want 4", len(trees))
	}
	for _, tr := range trees {
		if len(tr.Tasks) != 4 {
			t.Errorf("correlated tree %v should have 4 tasks (one per operator side)", tr.Tasks)
		}
	}
	if got, want := Count(corr), 4.0; got != want {
		t.Errorf("Count(correlated diamond) = %v, want %v", got, want)
	}
	if got, want := Count(indep), 4.0; got != want {
		t.Errorf("Count(independent diamond) = %v, want %v", got, want)
	}
}

func TestEnumerateCap(t *testing.T) {
	topo := fullChain(4, 4, 4, 4) // 256 trees
	if _, err := Enumerate(topo, 100); !errors.Is(err, ErrTooManyTrees) {
		t.Fatalf("err = %v, want ErrTooManyTrees", err)
	}
	if trees, err := Enumerate(topo, 256); err != nil || len(trees) != 256 {
		t.Fatalf("Enumerate = %d trees, %v; want 256, nil", len(trees), err)
	}
}

func TestTreeHelpers(t *testing.T) {
	tr := Tree{Tasks: []topology.TaskID{1, 3, 5}}
	if tr.Key() != "1,3,5" {
		t.Errorf("Key = %q", tr.Key())
	}
	if !tr.Contains(3) || tr.Contains(2) {
		t.Error("Contains misbehaves")
	}
	if tr.Size() != 3 {
		t.Errorf("Size = %d", tr.Size())
	}
	rep := make([]bool, 6)
	rep[3] = true
	if got := tr.NonReplicated(rep); got != 2 {
		t.Errorf("NonReplicated = %d, want 2", got)
	}
}

func TestDecomposeAllFull(t *testing.T) {
	topo := fullChain(2, 2, 2)
	subs := Decompose(topo)
	if len(subs) != 1 || subs[0].Kind != FullSub || len(subs[0].Ops) != 3 {
		t.Fatalf("Decompose(full chain) = %+v, want one full sub with 3 ops", subs)
	}
	if !IsFullTopology(topo) {
		t.Error("IsFullTopology = false for full chain")
	}
}

func TestDecomposeStructured(t *testing.T) {
	b := topology.NewBuilder()
	src := b.AddSource("src", 8, 100)
	o1 := b.AddOperator("O1", 4, topology.Independent, 1)
	o2 := b.AddOperator("O2", 2, topology.Independent, 1)
	b.Connect(src, o1, topology.Merge)
	b.Connect(o1, o2, topology.Merge)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	subs := Decompose(topo)
	if len(subs) != 1 || subs[0].Kind != StructuredSub || len(subs[0].Ops) != 3 {
		t.Fatalf("Decompose(merge chain) = %+v, want one structured sub", subs)
	}
	if !IsStructuredTopology(topo) {
		t.Error("IsStructuredTopology = false for merge chain")
	}
}

// TestDecomposeGeneral builds a Fig. 4 style general topology: a
// structured upper part {O1,O2} feeding an all-Full lower part
// {O3,O4,O5}; the decomposition must split at the junction.
func TestDecomposeGeneral(t *testing.T) {
	b := topology.NewBuilder()
	src := b.AddSource("O1", 8, 100)
	o2 := b.AddOperator("O2", 8, topology.Independent, 1)
	o3 := b.AddOperator("O3", 4, topology.Independent, 1)
	o4 := b.AddOperator("O4", 2, topology.Independent, 1)
	o5 := b.AddOperator("O5", 1, topology.Independent, 1)
	b.Connect(src, o2, topology.OneToOne)
	b.Connect(o2, o3, topology.Merge)
	b.Connect(o3, o4, topology.Full)
	b.Connect(o4, o5, topology.Full)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	subs := Decompose(topo)
	if len(subs) != 2 {
		t.Fatalf("Decompose = %+v, want 2 subs", subs)
	}
	// subs sorted by smallest op: first is the structured upper part
	if subs[0].Kind != StructuredSub || len(subs[0].Ops) != 2 {
		t.Errorf("upper sub = %+v, want structured {O1,O2}", subs[0])
	}
	if subs[1].Kind != FullSub || len(subs[1].Ops) != 3 {
		t.Errorf("lower sub = %+v, want full {O3,O4,O5}", subs[1])
	}
	if IsFullTopology(topo) || IsStructuredTopology(topo) {
		t.Error("general topology misclassified")
	}
}

// TestDecomposeFullIntoSink: a single layer of Full edges into the sink
// operator is the legal Full partitioning into a structured topology's
// output operator, so no split happens.
func TestDecomposeFullIntoSink(t *testing.T) {
	b := topology.NewBuilder()
	src := b.AddSource("O1", 8, 100)
	o2 := b.AddOperator("O2", 4, topology.Independent, 1)
	o3 := b.AddOperator("O3", 2, topology.Independent, 1)
	b.Connect(src, o2, topology.Merge)
	b.Connect(o2, o3, topology.Full)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !IsStructuredTopology(topo) {
		t.Fatal("topology should classify as structured (Full only into sink)")
	}
	subs := Decompose(topo)
	if len(subs) != 1 || subs[0].Kind != StructuredSub || len(subs[0].Ops) != 3 {
		t.Fatalf("Decompose = %+v, want one structured sub with 3 ops", subs)
	}
}

// TestSplitUnitsMergeSplit reproduces Fig. 3(a): a merge into an
// operator that splits its output forces a unit boundary before the
// merge.
func TestSplitUnitsMergeSplit(t *testing.T) {
	b := topology.NewBuilder()
	o1 := b.AddSource("O1", 4, 100)
	o2 := b.AddOperator("O2", 2, topology.Independent, 1)
	o3 := b.AddOperator("O3", 4, topology.Independent, 1)
	b.Connect(o1, o2, topology.Merge)
	b.Connect(o2, o3, topology.Split)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	subs := Decompose(topo)
	if len(subs) != 1 {
		t.Fatalf("want single structured sub, got %+v", subs)
	}
	units, err := SplitUnits(topo, subs[0], 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 {
		t.Fatalf("units = %+v, want 2 (boundary between O1 and O2)", units)
	}
	if len(units[0].Ops) != 1 || units[0].Ops[0] != 0 {
		t.Errorf("first unit = %+v, want {O1}", units[0])
	}
	if len(units[1].Ops) != 2 {
		t.Errorf("second unit = %+v, want {O2,O3}", units[1])
	}
}

// TestSplitUnitsJoinMerge reproduces Fig. 3(b): a join operator with a
// merge input forces a unit boundary between the merging upstream and
// the join.
func TestSplitUnitsJoinMerge(t *testing.T) {
	b := topology.NewBuilder()
	o1 := b.AddSource("O1", 4, 100)
	o2 := b.AddSource("O2", 2, 100)
	o3 := b.AddOperator("O3", 2, topology.Correlated, 1)
	b.Connect(o1, o3, topology.Merge)
	b.Connect(o2, o3, topology.OneToOne)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	subs := Decompose(topo)
	if len(subs) != 1 {
		t.Fatalf("want single sub, got %+v", subs)
	}
	units, err := SplitUnits(topo, subs[0], 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 {
		t.Fatalf("units = %v, want 2 (boundary between O1 and O3)", units)
	}
}

func TestSegmentsConnected(t *testing.T) {
	topo := fullChain(2, 2)
	src := topo.TasksOf(0)
	down := topo.TasksOf(1)
	a := Tree{Tasks: []topology.TaskID{src[0]}}
	b := Tree{Tasks: []topology.TaskID{down[0]}}
	if !SegmentsConnected(topo, a, b) {
		t.Error("expected connection across Full edge")
	}
	if !SegmentsConnected(topo, b, a) {
		t.Error("expected connection to be symmetric")
	}
	c := Tree{Tasks: []topology.TaskID{src[1]}}
	if SegmentsConnected(topo, a, c) {
		t.Error("tasks of the same operator are not connected")
	}
}

// Property: enumeration agrees with Count on random layered topologies
// without diamonds (every derivation yields a distinct task set there).
func TestEnumerateMatchesCount(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := topology.NewBuilder()
		layers := 2 + rng.Intn(3)
		prev := b.AddSource("src", 1+rng.Intn(3), 100)
		for l := 1; l < layers; l++ {
			op := b.AddOperator("op", 1+rng.Intn(3), topology.Independent, 1)
			b.Connect(prev, op, topology.Full)
			prev = op
		}
		topo, err := b.Build()
		if err != nil {
			return false
		}
		trees, err := Enumerate(topo, 100000)
		if err != nil {
			return false
		}
		return float64(len(trees)) == Count(topo)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: every enumerated tree's task set is sorted, unique, contains
// exactly one sink task and at least one source task.
func TestTreeWellFormed(t *testing.T) {
	topo := diamondTopo(topology.Correlated, 3, 2, 2, 2)
	trees, err := Enumerate(topo, 10000)
	if err != nil {
		t.Fatal(err)
	}
	sinkSet := map[topology.TaskID]bool{}
	for _, id := range topo.SinkTasks() {
		sinkSet[id] = true
	}
	srcSet := map[topology.TaskID]bool{}
	for _, op := range topo.SourceOps() {
		for _, id := range topo.TasksOf(op) {
			srcSet[id] = true
		}
	}
	keys := map[string]bool{}
	for _, tr := range trees {
		if keys[tr.Key()] {
			t.Fatalf("duplicate tree %v", tr.Tasks)
		}
		keys[tr.Key()] = true
		sinks, srcs := 0, 0
		for i, id := range tr.Tasks {
			if i > 0 && tr.Tasks[i-1] >= id {
				t.Fatalf("tree %v not sorted", tr.Tasks)
			}
			if sinkSet[id] {
				sinks++
			}
			if srcSet[id] {
				srcs++
			}
		}
		if sinks != 1 {
			t.Errorf("tree %v has %d sink tasks, want 1", tr.Tasks, sinks)
		}
		if srcs < 1 {
			t.Errorf("tree %v has no source task", tr.Tasks)
		}
	}
}

func TestSubKindString(t *testing.T) {
	if StructuredSub.String() != "structured" || FullSub.String() != "full" {
		t.Error("SubKind.String misbehaves")
	}
}
