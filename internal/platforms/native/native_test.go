package native_test

import (
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/platforms/conformance"
	"graphalytics/internal/platforms/native"
)

func TestConformance(t *testing.T) {
	conformance.Run(t, native.New())
}

func TestDeterminism(t *testing.T) {
	for _, a := range algorithms.All {
		a := a
		t.Run(string(a), func(t *testing.T) {
			conformance.RunDeterminism(t, native.New(), a)
		})
	}
}

func TestRejectsMultiMachine(t *testing.T) {
	g, err := graph.FromEdges("g", false, false, []graph.Edge{{Src: 1, Dst: 2}}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = native.New().Upload(t.Context(), g, platform.RunConfig{Machines: 4})
	if err == nil {
		t.Fatal("expected error uploading to multiple machines on a single-machine platform")
	}
}

func TestCancellation(t *testing.T) {
	conformance.RunCancellation(t, native.New())
}

func TestStateOOM(t *testing.T) {
	conformance.RunStateOOM(t, native.New())
}
