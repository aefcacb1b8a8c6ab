package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags checks that every out-of-domain flag value is
// an error naming the flag, returned before any simulation: a NaN or
// infinite horizon would never stop, a negative failure time would
// panic in the clock, a NaN one would report a recovery for a failure
// that has no time, and a fraction outside [0, 1] would be clamped
// silently.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-horizon", "NaN"}, "-horizon"},
		{[]string{"-horizon", "Inf"}, "-horizon"},
		{[]string{"-horizon", "-1"}, "-horizon"},
		{[]string{"-fail-at", "-1"}, "-fail-at"},
		{[]string{"-fail-at", "NaN"}, "-fail-at"},
		{[]string{"-fail-at", "Inf"}, "-fail-at"},
		{[]string{"-fail-at", "300"}, "-fail-at"},
		{[]string{"-horizon", "10", "-fail-at", "20"}, "-fail-at"},
		{[]string{"-technique", "ppa", "-fraction", "-1"}, "-fraction"},
		{[]string{"-technique", "ppa", "-fraction", "2"}, "-fraction"},
		{[]string{"-technique", "ppa", "-fraction", "NaN"}, "-fraction"},
		{[]string{"-technique", "paxos"}, "-technique"},
		{[]string{"-failure", "partition"}, "-failure"},
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

// TestRunReportsRecovery runs a short single-failure scenario at the
// edges of the accepted flag ranges and checks the report.
func TestRunReportsRecovery(t *testing.T) {
	for _, args := range [][]string{
		{"-horizon", "60", "-fail-at", "20.2"},
		{"-technique", "ppa", "-fraction", "0", "-horizon", "60", "-fail-at", "0"},
		{"-technique", "ppa", "-fraction", "1", "-horizon", "60", "-fail-at", "20.2"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if s := out.String(); !strings.Contains(s, "latency=") || !strings.Contains(s, "overall recovery latency") {
			t.Errorf("%v: report has no recovery:\n%s", args, s)
		}
	}
}
