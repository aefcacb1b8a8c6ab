package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/randtopo"
	"repro/internal/topology"
)

// seed7Spec writes the topology of randtopo.DefaultSpec(7) (what
// `topogen -seed 7` prints) to a file and returns its path.
func seed7Spec(t *testing.T) string {
	t.Helper()
	topo, err := randtopo.Generate(randtopo.DefaultSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "topo.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := topology.WriteSpec(f, topo); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunRejectsBadFlags checks that every out-of-domain flag value is
// an error naming the flag, returned before anything is printed: a NaN
// fraction would print a garbage budget, a fraction outside [0, 1]
// would be clamped silently, a budget below -1 would silently fall back
// to -fraction, a budget above the task count would be printed as
// given, and a non-positive scenario count would fail in the sampler
// without naming the flag.
func TestRunRejectsBadFlags(t *testing.T) {
	path := seed7Spec(t)
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-topology", path, "-fraction", "NaN"}, "-fraction"},
		{[]string{"-topology", path, "-fraction", "-1"}, "-fraction"},
		{[]string{"-topology", path, "-fraction", "2"}, "-fraction"},
		{[]string{"-topology", path, "-fraction", "Inf"}, "-fraction"},
		{[]string{"-topology", path, "-planner", "paxos"}, "-planner"},
		{[]string{"-topology", path, "-algorithm", "sa"}, "-algorithm"},
		{[]string{"-topology", filepath.Join(t.TempDir(), "missing.json")}, "-topology"},
		{[]string{"-topology", path, "-planner", "sa-corr", "-corr-scenarios", "0"}, "-corr-scenarios"},
		{[]string{"-topology", path, "-budget", "-5"}, "-budget"},
		{[]string{"-topology", path, "-budget", "1000"}, "-budget"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: error %v, want one naming %s", tc.args, err, tc.flag)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q before failing", tc.args, out.String())
		}
	}
}

// TestRunOutput pins the exact output on the topology of `topogen -seed
// 7` for the structure-aware planner and its correlation-aware variant
// at two sampling seeds (-corr-seed 0 is seed 0, not the default).
func TestRunOutput(t *testing.T) {
	path := seed7Spec(t)
	const header = "topology: 7 operators, 27 tasks\n"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-planner", "sa"}, header +
			"planner: sa, budget: 14 tasks\n" +
			"plan size: 14 tasks\n" +
			"predicted OF: 0.7529\n" +
			"predicted IC: 0.6618\n" +
			"replicated tasks:\n" +
			"  task   0 = O1[0]\n" +
			"  task   1 = O2[0]\n" +
			"  task   5 = O3[0]\n" +
			"  task   9 = O4[0]\n" +
			"  task  12 = O5[0]\n" +
			"  task  13 = O5[1]\n" +
			"  task  14 = O5[2]\n" +
			"  task  15 = O5[3]\n" +
			"  task  21 = O6[0]\n" +
			"  task  22 = O6[1]\n" +
			"  task  23 = O6[2]\n" +
			"  task  24 = O7[0]\n" +
			"  task  25 = O7[1]\n" +
			"  task  26 = O7[2]\n"},
		{[]string{"-planner", "sa-corr"}, header +
			"planner: sa-corr, budget: 14 tasks\n" +
			"plan size: 14 tasks\n" +
			"predicted OF: 0.7527\n" +
			"predicted IC: 0.5990\n" +
			"expected OF under correlated bursts: 0.9456\n" +
			"replicated tasks:\n" +
			"  task   0 = O1[0]\n" +
			"  task   9 = O4[0]\n" +
			"  task  11 = O4[2]\n" +
			"  task  12 = O5[0]\n" +
			"  task  14 = O5[2]\n" +
			"  task  16 = O5[4]\n" +
			"  task  17 = O5[5]\n" +
			"  task  18 = O5[6]\n" +
			"  task  21 = O6[0]\n" +
			"  task  22 = O6[1]\n" +
			"  task  23 = O6[2]\n" +
			"  task  24 = O7[0]\n" +
			"  task  25 = O7[1]\n" +
			"  task  26 = O7[2]\n"},
		{[]string{"-planner", "sa-corr", "-corr-seed", "0"}, header +
			"planner: sa-corr, budget: 14 tasks\n" +
			"plan size: 14 tasks\n" +
			"predicted OF: 0.7527\n" +
			"predicted IC: 0.5990\n" +
			"expected OF under correlated bursts: 0.9427\n" +
			"replicated tasks:\n" +
			"  task   0 = O1[0]\n" +
			"  task   9 = O4[0]\n" +
			"  task  11 = O4[2]\n" +
			"  task  12 = O5[0]\n" +
			"  task  13 = O5[1]\n" +
			"  task  14 = O5[2]\n" +
			"  task  17 = O5[5]\n" +
			"  task  18 = O5[6]\n" +
			"  task  21 = O6[0]\n" +
			"  task  22 = O6[1]\n" +
			"  task  23 = O6[2]\n" +
			"  task  24 = O7[0]\n" +
			"  task  25 = O7[1]\n" +
			"  task  26 = O7[2]\n"},
	} {
		var out bytes.Buffer
		if err := run(append([]string{"-topology", path}, tc.args...), &out); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if got := out.String(); got != tc.want {
			t.Errorf("%v: output\n%s\nwant\n%s", tc.args, got, tc.want)
		}
	}
}
