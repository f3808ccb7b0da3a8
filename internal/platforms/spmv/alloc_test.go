package spmv

import (
	"context"
	"runtime"
	"testing"

	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// allocGraph builds a deterministic pseudo-random graph big enough that a
// per-vertex, per-round or per-frontier allocation would dwarf the
// assertion budget. Weights (when asked for) come from the same LCG
// stream.
func allocGraph(t testing.TB, n, deg int, weighted bool) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(true, weighted)
	b.SetName("alloc-test")
	b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	for v := 0; v < n; v++ {
		b.AddVertex(int64(v))
	}
	state := uint64(7)
	for v := 0; v < n; v++ {
		for k := 0; k < deg; k++ {
			state = state*6364136223846793005 + 1442695040888963407
			dst := int64(state>>33) % int64(n)
			if weighted {
				w := float64(state>>40&0xffffff)*0x1p-24 + 0.01
				b.AddWeightedEdge(int64(v), dst, w)
			} else {
				b.AddEdge(int64(v), dst)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCDLPSteadyStateAllocs guards the frontier-masked column gather: the
// dirty and changed masks and the histogram live in the pooled scratch,
// so after warm-up a run allocates only the label arrays plus a constant
// number of round descriptors.
func TestCDLPSteadyStateAllocs(t *testing.T) {
	g := allocGraph(t, 4000, 4, false)
	up, err := New(BackendS).Upload(t.Context(), g, platform.RunConfig{Threads: 4, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*uploaded)
	defer u.Free()
	run := func() {
		if _, err := cdlp(context.Background(), u, 10); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: grows the pooled scratch
	allocs := testing.AllocsPerRun(3, run)
	if allocs > 64 {
		t.Fatalf("steady-state CDLP run allocated %.0f objects, want <= 64 "+
			"(per-round allocation has regressed)", allocs)
	}
}

// TestSSSPSteadyStateAllocs guards the sparse Bellman-Ford SpMSpV: the
// distance bits, claim stamps, per-thread relax buffers, per-machine
// frontiers and routing counters all come from the scratch pool, so after
// warm-up a run allocates only the output vector plus one round
// descriptor per frontier round.
func TestSSSPSteadyStateAllocs(t *testing.T) {
	g := allocGraph(t, 4000, 4, true)
	up, err := New(BackendD).Upload(t.Context(), g, platform.RunConfig{Threads: 4, Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*uploaded)
	defer u.Free()
	run := func() {
		if _, err := sssp(context.Background(), u, 0); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: grows the pooled scratch
	allocs := testing.AllocsPerRun(3, run)
	if allocs > 128 {
		t.Fatalf("steady-state SSSP run allocated %.0f objects, want <= 128 "+
			"(per-round allocation has regressed)", allocs)
	}
}

// TestLCCAllocsIndependentOfSize guards the pooled LCC state: the mark
// arrays, neighborhood buffers and fetch counters come from the scratch
// pool, so after warm-up a run makes the same number of allocations at
// any graph size, and the only bytes that grow with the graph are the
// output vector's. A per-call mark array would keep the count equal but
// add 4 bytes per vertex and thread.
func TestLCCAllocsIndependentOfSize(t *testing.T) {
	const threads, runs = 4, 3
	measure := func(n int) (allocs float64, bytes uint64) {
		g := allocGraph(t, n, 4, false)
		up, err := New(BackendD).Upload(t.Context(), g, platform.RunConfig{Threads: threads, Machines: 2})
		if err != nil {
			t.Fatal(err)
		}
		u := up.(*uploaded)
		defer u.Free()
		run := func() {
			if _, err := lcc(context.Background(), u); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm-up: grows the pooled scratch
		allocs = testing.AllocsPerRun(runs, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	const small, large = 2000, 8000
	smallAllocs, smallBytes := measure(small)
	largeAllocs, largeBytes := measure(large)
	if smallAllocs != largeAllocs {
		t.Fatalf("steady-state LCC run allocated %.0f objects at n=%d but %.0f at n=%d, want equal "+
			"(LCC state is no longer pooled)", smallAllocs, small, largeAllocs, large)
	}
	// The output vector grows by 8 bytes per vertex; allow a page of
	// size-class rounding on top.
	if growth, out := int64(largeBytes)-int64(smallBytes), int64(8*(large-small)); growth > out+4096 {
		t.Fatalf("steady-state LCC bytes grew by %d from n=%d to n=%d, want <= %d (output vector only)",
			growth, small, large, out+4096)
	}
}
