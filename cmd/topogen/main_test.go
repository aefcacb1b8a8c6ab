package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/randtopo"
	"repro/internal/topology"
)

// TestRunRejectsBadFlags checks that every out-of-domain flag value is
// an error naming the flag, returned before anything is printed: a zero
// rate would print the default rate, a negative or NaN skew a uniform
// topology and a NaN join fraction a join-free one; a NaN or infinite
// rate would fail only in the JSON encoder after generating, and the
// other cases with a generator or topology error that names no flag.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-rate", "0"}, "-rate"},
		{[]string{"-rate", "-5"}, "-rate"},
		{[]string{"-rate", "NaN"}, "-rate"},
		{[]string{"-rate", "Inf"}, "-rate"},
		{[]string{"-skew", "-1"}, "-skew"},
		{[]string{"-skew", "NaN"}, "-skew"},
		{[]string{"-skew", "Inf"}, "-skew"},
		{[]string{"-skew", "1000"}, "-skew"},
		{[]string{"-join", "NaN"}, "-join"},
		{[]string{"-join", "1.5"}, "-join"},
		{[]string{"-join", "0.5", "-min-ops", "2"}, "-min-ops"},
		{[]string{"-min-ops", "1"}, "-min-ops"},
		{[]string{"-min-ops", "5", "-max-ops", "0"}, "-max-ops"},
		{[]string{"-min-par", "0"}, "-min-par"},
		{[]string{"-min-par", "4", "-max-par", "3"}, "-max-par"},
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

// TestSeed7Output pins that `topogen -seed 7` prints the spec of
// randtopo.DefaultSpec(7), the topology ppaplan's tests plan on.
func TestSeed7Output(t *testing.T) {
	topo, err := randtopo.Generate(randtopo.DefaultSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := topology.WriteSpec(&want, topo); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-seed", "7"}, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("topogen -seed 7 printed\n%s\nwant\n%s", got.String(), want.String())
	}
}
