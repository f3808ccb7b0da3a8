package gas_test

import (
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/platforms/conformance"
	"graphalytics/internal/platforms/gas"
)

func TestConformance(t *testing.T) {
	conformance.Run(t, gas.New())
}

func TestDeterminism(t *testing.T) {
	for _, a := range algorithms.All {
		a := a
		t.Run(string(a), func(t *testing.T) {
			conformance.RunDeterminism(t, gas.New(), a)
		})
	}
}

func TestCancellation(t *testing.T) {
	conformance.RunCancellation(t, gas.New())
}

func TestLCCRepeat(t *testing.T) {
	conformance.RunLCCRepeat(t, gas.New())
}

func TestStateOOM(t *testing.T) {
	conformance.RunStateOOM(t, gas.New())
}
