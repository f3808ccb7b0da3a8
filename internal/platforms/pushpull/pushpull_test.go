package pushpull_test

import (
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/platforms/conformance"
	"graphalytics/internal/platforms/pushpull"
)

func TestConformance(t *testing.T) {
	conformance.Run(t, pushpull.New())
}

func TestNoLCC(t *testing.T) {
	if pushpull.New().Supports(algorithms.LCC) {
		t.Fatal("pushpull must not support LCC, mirroring PGX.D in the paper")
	}
}

func TestDeterminism(t *testing.T) {
	for _, a := range algorithms.All {
		a := a
		t.Run(string(a), func(t *testing.T) {
			conformance.RunDeterminism(t, pushpull.New(), a)
		})
	}
}

func TestForcedDirections(t *testing.T) {
	conformance.Run(t, pushpull.NewForced("push"))
}

func TestCancellation(t *testing.T) {
	conformance.RunCancellation(t, pushpull.New())
}

func TestStateOOM(t *testing.T) {
	conformance.RunStateOOM(t, pushpull.New())
}
