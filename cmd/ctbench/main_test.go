package main

import (
	"errors"
	"testing"

	"repro/internal/bench"
)

// TestFigureSelection: ctbench runs exactly the figure table. The server
// figures persist and repl are gone (the benchmark module's srv_*
// workloads measure the server), and -json accepts a figure exactly when
// its table entry builds a Report.
func TestFigureSelection(t *testing.T) {
	for _, gone := range []string{"persist", "repl"} {
		for _, asJSON := range []bool{false, true} {
			if _, err := selectFigures(gone, asJSON); !errors.Is(err, errUnknown) {
				t.Fatalf("selectFigures(%q, json=%v) err = %v, want errUnknown", gone, asJSON, err)
			}
		}
	}
	for _, f := range bench.Figures {
		if got, err := selectFigures(f.Name, false); err != nil || len(got) != 1 || got[0].Name != f.Name {
			t.Fatalf("selectFigures(%q) = %v, %v", f.Name, got, err)
		}
		_, err := selectFigures(f.Name, true)
		if accepted := err == nil; accepted != (f.Report != nil) {
			t.Fatalf("-json %s accepted=%v, but the table entry builds a Report: %v", f.Name, accepted, f.Report != nil)
		}
	}
	if got, err := selectFigures("all", false); err != nil || len(got) != len(bench.Figures) {
		t.Fatalf("all selects %d figures, %v; want the %d of the table", len(got), err, len(bench.Figures))
	}
	if _, err := selectFigures("all", true); err == nil {
		t.Fatal("-json all accepted")
	}
}
