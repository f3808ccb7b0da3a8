package platforms_test

import (
	"errors"
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/platforms"
)

// TestDriverErrorClasses pins the errors.Is class of every job a driver
// rejects before running a kernel: an algorithm it does not implement, a
// BFS source that is not in the graph, SSSP on an unweighted graph, and
// an upload handle from another driver.
func TestDriverErrorClasses(t *testing.T) {
	platforms.RegisterAll()
	g, err := graph.FromEdges("unweighted", true, false, []graph.Edge{{Src: 1, Dst: 2}}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range platform.All() {
		up, err := platform.UploadContext(t.Context(), p, g, platform.RunConfig{})
		if err != nil {
			t.Fatalf("%s: upload: %v", p.Name(), err)
		}
		for _, a := range algorithms.All {
			var want error
			params := algorithms.Params{Source: 1}
			switch {
			case !p.Supports(a):
				want = platform.ErrUnsupported
			case a == algorithms.BFS:
				params.Source, want = 99, algorithms.ErrSourceNotFound
			case a == algorithms.SSSP:
				want = algorithms.ErrNeedsWeights
			default:
				continue
			}
			if _, err := p.Execute(t.Context(), up, a, params); !errors.Is(err, want) {
				t.Errorf("%s/%s: got %v, want %v", p.Name(), a, err, want)
			}
		}
		foreign := &platform.BaseUpload{G: g, Cl: up.Cluster()}
		if _, err := p.Execute(t.Context(), foreign, algorithms.BFS, algorithms.Params{Source: 1}); err == nil {
			t.Errorf("%s: accepted a foreign upload handle", p.Name())
		}
		up.Free()
	}
}
