package randtopo

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mctree"
	"repro/internal/topology"
)

func TestGenerateDeterministic(t *testing.T) {
	spec := DefaultSpec(42)
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumOps() != b.NumOps() || a.NumTasks() != b.NumTasks() {
		t.Fatalf("same seed produced different topologies: %d/%d ops, %d/%d tasks",
			a.NumOps(), b.NumOps(), a.NumTasks(), b.NumTasks())
	}
	for i := range a.Tasks {
		if a.OutRate(a.Tasks[i].ID) != b.OutRate(b.Tasks[i].ID) {
			t.Fatalf("task %d rate differs between runs", i)
		}
	}
}

func TestGenerateBounds(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		spec := DefaultSpec(seed)
		spec.MinOps, spec.MaxOps = 5, 10
		spec.MinPar, spec.MaxPar = 1, 10
		topo, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if n := topo.NumOps(); n < 5 || n > 10 {
			t.Errorf("seed %d: %d operators out of [5,10]", seed, n)
		}
		for i, op := range topo.Ops {
			if op.Parallelism < 1 || op.Parallelism > 10 {
				t.Errorf("seed %d: op %d parallelism %d out of [1,10]", seed, i, op.Parallelism)
			}
		}
	}
}

func TestGenerateFullTopology(t *testing.T) {
	spec := DefaultSpec(7)
	spec.Full = true
	topo, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !mctree.IsFullTopology(topo) {
		t.Error("spec.Full did not produce an all-Full topology")
	}
}

func TestGenerateStructured(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		topo, err := Generate(DefaultSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range topo.Edges {
			if e.Part == topology.Full {
				t.Errorf("seed %d: structured spec produced a Full edge", seed)
			}
		}
	}
}

func TestGenerateJoins(t *testing.T) {
	spec := DefaultSpec(11)
	spec.JoinFraction = 0.5
	topo, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	joins := 0
	for i, op := range topo.Ops {
		if op.Kind == topology.Correlated {
			joins++
			if got := len(topo.UpstreamOps(i)); got != 2 {
				t.Errorf("join op %d has %d upstream operators, want 2", i, got)
			}
		}
	}
	if joins == 0 {
		t.Error("JoinFraction 0.5 produced no join operators")
	}
	if got := len(topo.SourceOps()); got < 2 {
		t.Errorf("join topologies need >= 2 sources, got %d", got)
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(4, 0)
	for i, v := range w {
		if math.Abs(v-1) > 1e-9 {
			t.Errorf("uniform weight[%d] = %v, want 1", i, v)
		}
	}
	w = ZipfWeights(4, 1)
	if !(w[0] > w[1] && w[1] > w[2] && w[2] > w[3]) {
		t.Errorf("zipf weights not decreasing: %v", w)
	}
	var sum float64
	for _, v := range w {
		sum += v
	}
	if math.Abs(sum-4) > 1e-9 {
		t.Errorf("zipf weights sum = %v, want 4", sum)
	}
}

func TestGenerateSkewedWeights(t *testing.T) {
	spec := DefaultSpec(3)
	spec.Skew = 0.5
	spec.MinPar = 3
	topo, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	skewed := false
	for op := range topo.Ops {
		ids := topo.TasksOf(op)
		if len(ids) >= 2 && topo.Weight(ids[0]) > topo.Weight(ids[1]) {
			skewed = true
		}
	}
	if !skewed {
		t.Error("Skew produced no skewed operator weights")
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{MinOps: 1, MaxOps: 5, MinPar: 1, MaxPar: 2},
		{MinOps: 5, MaxOps: 4, MinPar: 1, MaxPar: 2},
		{MinOps: 5, MaxOps: 6, MinPar: 0, MaxPar: 2},
		{MinOps: 5, MaxOps: 6, MinPar: 3, MaxPar: 2},
		{MinOps: 5, MaxOps: 6, MinPar: 1, MaxPar: 2, JoinFraction: 1.5},
		{MinOps: 5, MaxOps: 6, MinPar: 1, MaxPar: 2, JoinFraction: math.NaN()},
	}
	for i, spec := range bad {
		if _, err := Generate(spec); err == nil {
			t.Errorf("spec %d accepted: %+v", i, spec)
		}
	}
}

// Property: every generated topology is a valid DAG with positive rates
// everywhere.
func TestGeneratedAlwaysValid(t *testing.T) {
	check := func(seed int64, full bool, join bool) bool {
		spec := DefaultSpec(seed)
		spec.Full = full
		if join {
			spec.JoinFraction = 0.5
		}
		topo, err := Generate(spec)
		if err != nil {
			return false
		}
		for _, task := range topo.Tasks {
			if topo.OutRate(task.ID) <= 0 {
				return false
			}
		}
		return len(topo.SinkOps()) >= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
