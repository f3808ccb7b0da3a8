package spmv_test

import (
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/platforms/conformance"
	"graphalytics/internal/platforms/spmv"
)

func TestConformanceSharedMemory(t *testing.T) {
	conformance.Run(t, spmv.New(spmv.BackendS))
}

func TestConformanceDistributed(t *testing.T) {
	conformance.Run(t, spmv.New(spmv.BackendD))
}

func TestDeterminism(t *testing.T) {
	for _, a := range algorithms.All {
		a := a
		t.Run(string(a), func(t *testing.T) {
			conformance.RunDeterminism(t, spmv.New(spmv.BackendD), a)
		})
	}
}

func TestBackendS_NoSSSP(t *testing.T) {
	if spmv.New(spmv.BackendS).Supports(algorithms.SSSP) {
		t.Fatal("backend S must not support SSSP (the paper uses backend D for SSSP)")
	}
	if !spmv.New(spmv.BackendD).Supports(algorithms.SSSP) {
		t.Fatal("backend D must support SSSP")
	}
}

func TestBackendS_RejectsMultiMachine(t *testing.T) {
	g, err := graph.FromEdges("g", false, false, []graph.Edge{{Src: 1, Dst: 2}}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spmv.New(spmv.BackendS).Upload(t.Context(), g, platform.RunConfig{Machines: 2}); err == nil {
		t.Fatal("expected backend S to reject multi-machine upload")
	}
}

func TestCancellation(t *testing.T) {
	conformance.RunCancellation(t, spmv.New(spmv.BackendD))
}

func TestLCCRepeat(t *testing.T) {
	conformance.RunLCCRepeat(t, spmv.New(spmv.BackendS))
	conformance.RunLCCRepeat(t, spmv.New(spmv.BackendD))
}

func TestStateOOM(t *testing.T) {
	conformance.RunStateOOM(t, spmv.New(spmv.BackendS))
	conformance.RunStateOOM(t, spmv.New(spmv.BackendD))
}
