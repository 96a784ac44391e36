package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownExperimentExits2: a misspelt -exp used to match nothing in
// the dispatcher and exit 0 having run nothing.
func TestUnknownExperimentExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig99"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Fatalf("an unknown experiment ran something: %q", stdout.String())
	}
	for _, x := range experimentTable {
		if !strings.Contains(stderr.String(), x.name) {
			t.Fatalf("error does not list %q: %s", x.name, stderr.String())
		}
	}
}

func TestOutFlag(t *testing.T) {
	if got := reportPath("", "stream"); got != "BENCH_stream.json" {
		t.Fatalf("default report path %q", got)
	}
	if got := reportPath("x.json", "stream"); got != "x.json" {
		t.Fatalf("-out ignored: %q", got)
	}
	// One path cannot hold every report of -exp all.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-out", "x.json"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Fatalf("-exp all -out x.json: exit %d, stdout %q", code, stdout.String())
	}
}

// TestKnownExperimentRuns drives the cheapest experiment through the
// table, so the dispatcher itself is covered.
func TestKnownExperimentRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "\n==== FIG3 ====\n") {
		t.Fatalf("unexpected output: %q", stdout.String())
	}
}
