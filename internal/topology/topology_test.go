package topology

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// diamond builds the Fig. 2 style topology: two source operators feeding
// a single downstream operator.
func diamond(kind InputKind) (*Topology, error) {
	b := NewBuilder()
	o1 := b.AddSource("O1", 2, 100)
	o2 := b.AddSource("O2", 2, 100)
	o3 := b.AddOperator("O3", 1, kind, 1)
	b.Connect(o1, o3, Full)
	b.Connect(o2, o3, Full)
	return b.Build()
}

func TestBuildDiamond(t *testing.T) {
	topo, err := diamond(Correlated)
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.NumTasks(); got != 5 {
		t.Fatalf("NumTasks = %d, want 5", got)
	}
	if got := len(topo.SourceOps()); got != 2 {
		t.Fatalf("len(SourceOps) = %d, want 2", got)
	}
	if got := len(topo.SinkOps()); got != 1 {
		t.Fatalf("len(SinkOps) = %d, want 1", got)
	}
	sink := topo.TasksOf(2)[0]
	ins := topo.InputsOf(sink)
	if len(ins) != 2 {
		t.Fatalf("sink has %d input streams, want 2", len(ins))
	}
	for _, in := range ins {
		if !almostEqual(in.Rate(), 200) {
			t.Errorf("input stream from op %d rate = %v, want 200", in.FromOp, in.Rate())
		}
		if len(in.Subs) != 2 {
			t.Errorf("input stream from op %d has %d substreams, want 2", in.FromOp, len(in.Subs))
		}
	}
	if !almostEqual(topo.OutRate(sink), 400) {
		t.Errorf("sink out rate = %v, want 400", topo.OutRate(sink))
	}
}

func TestSelectivityPropagation(t *testing.T) {
	b := NewBuilder()
	src := b.AddSource("src", 4, 1000)
	o1 := b.AddOperator("O1", 2, Independent, 0.5)
	o2 := b.AddOperator("O2", 1, Independent, 0.5)
	b.Connect(src, o1, Merge)
	b.Connect(o1, o2, Merge)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// 4*1000 input -> O1 outputs 2000 total -> O2 outputs 1000.
	sink := topo.TasksOf(2)[0]
	if !almostEqual(topo.OutRate(sink), 1000) {
		t.Errorf("sink rate = %v, want 1000", topo.OutRate(sink))
	}
}

func TestPartitioningShapes(t *testing.T) {
	cases := []struct {
		name       string
		part       Partitioning
		n1, n2     int
		wantUpOut  int // substreams per upstream task
		wantDownIn int // substreams per downstream task
	}{
		{"one-to-one", OneToOne, 4, 4, 1, 1},
		{"split", Split, 2, 8, 4, 1},
		{"merge", Merge, 8, 2, 1, 4},
		{"full", Full, 3, 5, 5, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			up := b.AddSource("up", tc.n1, 100)
			down := b.AddOperator("down", tc.n2, Independent, 1)
			b.Connect(up, down, tc.part)
			topo, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range topo.TasksOf(0) {
				if got := len(topo.OutputsOf(id)); got != tc.wantUpOut {
					t.Errorf("upstream task %d has %d outputs, want %d", id, got, tc.wantUpOut)
				}
			}
			for _, id := range topo.TasksOf(1) {
				ins := topo.InputsOf(id)
				if len(ins) != 1 {
					t.Fatalf("downstream task %d has %d input streams, want 1", id, len(ins))
				}
				if got := len(ins[0].Subs); got != tc.wantDownIn {
					t.Errorf("downstream task %d has %d substreams, want %d", id, got, tc.wantDownIn)
				}
			}
		})
	}
}

func TestPartitioningArityErrors(t *testing.T) {
	cases := []struct {
		name   string
		part   Partitioning
		n1, n2 int
	}{
		{"one-to-one unequal", OneToOne, 2, 3},
		{"split shrinking", Split, 4, 2},
		{"merge growing", Merge, 2, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			up := b.AddSource("up", tc.n1, 100)
			down := b.AddOperator("down", tc.n2, Independent, 1)
			b.Connect(up, down, tc.part)
			if _, err := b.Build(); err == nil {
				t.Fatal("Build succeeded, want arity error")
			}
		})
	}
}

func TestCycleDetection(t *testing.T) {
	b := NewBuilder()
	a := b.AddSource("src", 1, 10)
	x := b.AddOperator("X", 1, Independent, 1)
	y := b.AddOperator("Y", 1, Independent, 1)
	b.Connect(a, x, OneToOne)
	b.Connect(x, y, OneToOne)
	b.Connect(y, x, OneToOne)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("Build err = %v, want cycle error", err)
	}
}

func TestSelfLoopRejected(t *testing.T) {
	b := NewBuilder()
	x := b.AddSource("X", 1, 10)
	b.Connect(x, x, Full)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build succeeded, want self-subscription error")
	}
}

func TestDuplicateEdgeRejected(t *testing.T) {
	b := NewBuilder()
	s := b.AddSource("s", 1, 10)
	x := b.AddOperator("X", 1, Independent, 1)
	b.Connect(s, x, Full)
	b.Connect(s, x, Full)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build succeeded, want duplicate edge error")
	}
}

func TestNoSourceRejected(t *testing.T) {
	b := NewBuilder()
	b.AddOperator("X", 1, Independent, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build succeeded, want no-source error")
	}
}

func TestWeightsSkewSubstreamRates(t *testing.T) {
	b := NewBuilder()
	src := b.AddSource("src", 1, 100)
	down := b.AddOperator("down", 2, Independent, 1)
	b.SetWeights(down, []float64{3, 1})
	b.Connect(src, down, Full)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := topo.TasksOf(1)
	if r := topo.InputsOf(d[0])[0].Rate(); !almostEqual(r, 75) {
		t.Errorf("heavy task input rate = %v, want 75", r)
	}
	if r := topo.InputsOf(d[1])[0].Rate(); !almostEqual(r, 25) {
		t.Errorf("light task input rate = %v, want 25", r)
	}
}

func TestWeightValidation(t *testing.T) {
	b := NewBuilder()
	src := b.AddSource("src", 2, 100)
	b.SetWeights(src, []float64{1}) // wrong length
	if _, err := b.Build(); err == nil {
		t.Fatal("Build succeeded, want weight-length error")
	}
	b2 := NewBuilder()
	src2 := b2.AddSource("src", 2, 100)
	b2.SetWeights(src2, []float64{1, -1})
	if _, err := b2.Build(); err == nil {
		t.Fatal("Build succeeded, want negative-weight error")
	}
}

// Flow conservation: for every non-source task, the sum of substream
// rates out of the task equals its output rate; for every edge, total
// upstream output rate equals total downstream input rate.
func TestFlowConservation(t *testing.T) {
	b := NewBuilder()
	src := b.AddSource("src", 16, 1000)
	o1 := b.AddOperator("O1", 8, Independent, 0.5)
	o2 := b.AddOperator("O2", 4, Independent, 0.5)
	o3 := b.AddOperator("O3", 2, Independent, 0.5)
	o4 := b.AddOperator("O4", 1, Independent, 0.5)
	b.Connect(src, o1, Merge)
	b.Connect(o1, o2, Merge)
	b.Connect(o2, o3, Merge)
	b.Connect(o3, o4, Merge)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range topo.Tasks {
		outs := topo.OutputsOf(task.ID)
		if len(outs) == 0 {
			continue
		}
		var sum float64
		for _, s := range outs {
			sum += s.Rate
		}
		if !almostEqual(sum, topo.OutRate(task.ID)) {
			t.Errorf("task %d: outgoing substream sum %v != out rate %v", task.ID, sum, topo.OutRate(task.ID))
		}
	}
	// end-to-end: 16*1000 * 0.5^4 = 1000 at the sink
	sink := topo.SinkTasks()[0]
	if !almostEqual(topo.OutRate(sink), 1000) {
		t.Errorf("sink rate = %v, want 1000", topo.OutRate(sink))
	}
}

func TestBalancedGroups(t *testing.T) {
	check := func(n, k uint8) bool {
		nn, kk := int(n%32)+1, int(k%8)+1
		if kk > nn {
			nn, kk = kk, nn
		}
		groups := balancedGroups(nn, kk)
		if len(groups) != kk {
			return false
		}
		seen := make(map[int]bool)
		minSize, maxSize := nn, 0
		for _, g := range groups {
			if len(g) < minSize {
				minSize = len(g)
			}
			if len(g) > maxSize {
				maxSize = len(g)
			}
			for _, x := range g {
				if seen[x] {
					return false
				}
				seen[x] = true
			}
		}
		return len(seen) == nn && maxSize-minSize <= 1
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	b := NewBuilder()
	src := b.AddSource("src", 4, 500)
	join := b.AddOperator("join", 2, Correlated, 0.25)
	agg := b.AddOperator("agg", 1, Independent, 1)
	b.SetWeights(join, []float64{2, 1})
	b.Connect(src, join, Merge)
	b.Connect(join, agg, Full)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSpec(&buf, topo); err != nil {
		t.Fatal(err)
	}
	topo2, err := ReadSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if topo2.NumTasks() != topo.NumTasks() {
		t.Fatalf("round-trip tasks = %d, want %d", topo2.NumTasks(), topo.NumTasks())
	}
	for _, task := range topo.Tasks {
		if !almostEqual(topo.OutRate(task.ID), topo2.OutRate(task.ID)) {
			t.Errorf("task %d rate %v != %v after round trip", task.ID, topo.OutRate(task.ID), topo2.OutRate(task.ID))
		}
	}
	if topo2.Ops[1].Kind != Correlated {
		t.Error("join operator kind lost in round trip")
	}
}

func TestSpecErrors(t *testing.T) {
	cases := []string{
		`{"operators":[{"name":"a","parallelism":1,"sourceRate":1},{"name":"a","parallelism":1}],"edges":[]}`,
		`{"operators":[{"name":"a","parallelism":1,"sourceRate":1}],"edges":[{"from":"a","to":"zzz","partitioning":"full"}]}`,
		`{"operators":[{"name":"a","parallelism":1,"sourceRate":1},{"name":"b","parallelism":1}],"edges":[{"from":"a","to":"b","partitioning":"bogus"}]}`,
		`{"operators":[{"name":"a","parallelism":1,"sourceRate":1},{"name":"b","parallelism":1,"kind":"bogus"}],"edges":[{"from":"a","to":"b","partitioning":"full"}]}`,
	}
	for i, src := range cases {
		if _, err := ReadSpec(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: ReadSpec succeeded, want error", i)
		}
	}
}

func TestUpDownstreamQueries(t *testing.T) {
	topo, err := diamond(Independent)
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.UpstreamOps(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("UpstreamOps(2) = %v, want [0 1]", got)
	}
	if got := topo.DownstreamOps(0); len(got) != 1 || got[0] != 2 {
		t.Errorf("DownstreamOps(0) = %v, want [2]", got)
	}
	if _, ok := topo.EdgeBetween(0, 2); !ok {
		t.Error("EdgeBetween(0,2) not found")
	}
	if _, ok := topo.EdgeBetween(2, 0); ok {
		t.Error("EdgeBetween(2,0) unexpectedly found")
	}
}

func TestPartitioningString(t *testing.T) {
	for p, want := range map[Partitioning]string{OneToOne: "one-to-one", Split: "split", Merge: "merge", Full: "full"} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
	if got := InputKind(Correlated).String(); got != "correlated" {
		t.Errorf("Correlated.String() = %q", got)
	}
	if got := InputKind(Independent).String(); got != "independent" {
		t.Errorf("Independent.String() = %q", got)
	}
}
