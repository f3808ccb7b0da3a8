package dataflow

import (
	"context"
	"testing"

	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// allocGraph builds a deterministic pseudo-random graph big enough that a
// per-message or per-vertex allocation would dwarf the assertion budget.
func allocGraph(t testing.TB, n, deg int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(false, false)
	b.SetName("alloc-test")
	b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	for v := 0; v < n; v++ {
		b.AddVertex(int64(v))
	}
	state := uint64(9)
	for v := 0; v < n; v++ {
		for k := 0; k < deg; k++ {
			state = state*6364136223846793005 + 1442695040888963407
			b.AddEdge(int64(v), int64(state>>33)%int64(n))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestWCCSteadyStateAllocs is the arena-discipline regression guard for
// the dataflow engine: after a warm-up job has grown the shuffle plane, a
// whole WCC run — every iteration staging two messages per edge and
// folding them per vertex — must allocate at most a small constant. The
// seed engine built a map[int32]M per vertex partition per iteration plus
// a fresh [][]keyed inbox, tens of thousands of objects on this graph.
func TestWCCSteadyStateAllocs(t *testing.T) {
	g := allocGraph(t, 4000, 4)
	up, err := New().Upload(t.Context(), g, platform.RunConfig{Threads: 4, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*uploaded)
	defer u.Free()
	run := func() {
		if _, err := wccFlow(context.Background(), u); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: grows the job-lifetime shuffle plane
	allocs := testing.AllocsPerRun(3, run)
	// Budget: the returned label array plus two cluster round descriptors
	// per iteration — nothing proportional to vertices, edges or messages.
	if allocs > 64 {
		t.Fatalf("steady-state WCC run allocated %.0f objects, want <= 64 "+
			"(per-iteration allocation has regressed)", allocs)
	}
}

// TestCDLPSteadyStateAllocs guards the frontier CDLP flow: the dirty and
// changed masks, per-partition update counters and the shuffle plane are
// all pooled, so after warm-up a whole run — receiver-gated sends, the
// uncharged mark pass, early convergence — allocates only the label
// arrays plus a constant number of round descriptors.
func TestCDLPSteadyStateAllocs(t *testing.T) {
	g := allocGraph(t, 4000, 4)
	up, err := New().Upload(t.Context(), g, platform.RunConfig{Threads: 4, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*uploaded)
	defer u.Free()
	run := func() {
		if _, err := cdlpFlow(context.Background(), u, 10); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: grows the shuffle plane and the CDLP scratch
	allocs := testing.AllocsPerRun(3, run)
	if allocs > 64 {
		t.Fatalf("steady-state CDLP run allocated %.0f objects, want <= 64 "+
			"(per-iteration allocation has regressed)", allocs)
	}
}
