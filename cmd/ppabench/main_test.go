package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags checks that a bad flag is an error naming it,
// returned before any figure runs or anything is printed: a
// non-positive -n would otherwise fail only at Fig. 14a, after `-figure
// all` spent its time on Figs. 7–13, and be ignored by the other
// figures.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-figure", "all", "-n", "0"}, "-n"},
		{[]string{"-figure", "14a", "-n", "0"}, "-n"},
		{[]string{"-figure", "14b", "-n", "-3"}, "-n"},
		{[]string{"-figure", "9", "-n", "0"}, "-n"},
		{[]string{"-figure", "99"}, "-figure"},
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
