package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name           string
		args           []string
		code           int
		stdout, stderr string // substrings; "" = must be empty
	}{
		{"no experiment", []string{"-fast"}, 2, "", usage},
		{"trailing flags are refused, not dropped", []string{"-scale", "0.2", "fig7", "-fast", "-workload", "nosuch"}, 2, "", usage},
		{"unknown experiment", []string{"-fast", "nosuch"}, 1, "", `unknown experiment "nosuch"`},
		// fig5 evaluates from inside the training callback: it is the cheapest
		// experiment and the one that hung when Plan took the serving lock there.
		{"fig5 runs", []string{"-fast", "-scale", "0.1", "fig5"}, 0, "FIG 5: training curves on job", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			check := func(what, got, want string) {
				if (want == "") != (got == "") || !strings.Contains(got, want) {
					t.Errorf("%s = %q, want it to contain %q", what, got, want)
				}
			}
			check("stdout", stdout.String(), tc.stdout)
			check("stderr", stderr.String(), tc.stderr)
		})
	}
}

func TestEveryUsageNameDispatches(t *testing.T) {
	names := strings.Split(usage[strings.LastIndex(usage, " ")+1:], "|")
	if len(names) != len(single)+1 {
		t.Errorf("usage names %d experiments, fossbench knows %d", len(names), len(single)+1)
	}
	for _, n := range append(names, all...) {
		if single[n] == nil && n != "all" {
			t.Errorf("%q is named but dispatches to nothing", n)
		}
	}
}
