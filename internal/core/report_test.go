package core_test

import (
	"strings"
	"testing"

	"graphalytics/internal/core"
)

func TestReportRender(t *testing.T) {
	rep := &core.Report{
		ID:      "x",
		Title:   "test",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"a note"},
	}
	var sb strings.Builder
	if err := rep.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== x: test ==", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}
