package pregel_test

import (
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/platforms/conformance"
	"graphalytics/internal/platforms/pregel"
)

func TestConformance(t *testing.T) {
	conformance.Run(t, pregel.New())
}

func TestConformanceWithoutCombiners(t *testing.T) {
	conformance.Run(t, pregel.NewWithOptions(false))
}

func TestDeterminism(t *testing.T) {
	for _, a := range algorithms.All {
		a := a
		t.Run(string(a), func(t *testing.T) {
			conformance.RunDeterminism(t, pregel.New(), a)
		})
	}
}

func TestCancellation(t *testing.T) {
	conformance.RunCancellation(t, pregel.New())
}

func TestLCCRepeat(t *testing.T) {
	conformance.RunLCCRepeat(t, pregel.New())
}

func TestStateOOM(t *testing.T) {
	conformance.RunStateOOM(t, pregel.New())
}
