package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGranulaCLIRoundTrip checks the two halves of the Granula flow: the
// record `run -granula` writes is accepted by `granula`, and a malformed
// record is rejected. A returned error is a nonzero exit in main.
func TestGranulaCLIRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "granula.json")
	if err := cmdRun(t.Context(), []string{"-platform", "native", "-dataset", "R1", "-algorithm", "BFS", "-threads", "1", "-granula", path}); err != nil {
		t.Fatalf("run -granula: %v", err)
	}
	if err := cmdGranula([]string{path}); err != nil {
		t.Fatalf("granula on a fresh record: %v", err)
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"platform": "native", "root": `), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdGranula([]string{bad}); err == nil {
		t.Fatal("granula accepted malformed JSON")
	}
}
