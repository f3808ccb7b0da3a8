package dataflow_test

import (
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/platforms/conformance"
	"graphalytics/internal/platforms/dataflow"
)

func TestConformance(t *testing.T) {
	conformance.Run(t, dataflow.New())
}

func TestDeterminism(t *testing.T) {
	for _, a := range algorithms.All {
		a := a
		t.Run(string(a), func(t *testing.T) {
			conformance.RunDeterminism(t, dataflow.New(), a)
		})
	}
}

func TestCancellation(t *testing.T) {
	conformance.RunCancellation(t, dataflow.New())
}

func TestStateOOM(t *testing.T) {
	conformance.RunStateOOM(t, dataflow.New())
}
