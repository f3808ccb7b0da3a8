package pregel

import (
	"context"
	"testing"

	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// TestBSPCombinerFoldOrderAndSlotReuse pins the combined-inbox contract:
// three or more messages arriving at one vertex during a single delivery
// fold into the vertex's single slot strictly left to right in delivery
// order, and the slot never grows into a multi-message inbox. The
// non-commutative combiner makes any deviation — a second slot appended
// mid-delivery, a reordered fold — change the observed value.
func TestBSPCombinerFoldOrderAndSlotReuse(t *testing.T) {
	// star: 0,1,2 all point at 3.
	g, err := graph.FromEdges("star", true, false, []graph.Edge{
		{Src: 0, Dst: 3}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3},
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	up, err := New().Upload(t.Context(), g, platform.RunConfig{Threads: 1, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*uploaded)
	defer u.Free()
	concat := func(a, b int64) int64 { return a*10 + b }
	r := newRunner[int64](u, fixedSize[int64](8), concat)
	var got []int64
	err = r.run(context.Background(), func(w *worker[int64], v int32, msgs []int64, superstep int) {
		if superstep == 0 {
			// With one machine and one thread, delivery order is vertex
			// order: 1 then 2 then 3.
			if v < 3 {
				w.Send(3, int64(v)+1)
			}
		}
		if superstep == 1 && v == 3 {
			got = append(got, msgs...)
		}
		w.VoteToHalt(v)
	})
	if err != nil {
		t.Fatal(err)
	}
	r.release()
	if len(got) != 1 {
		t.Fatalf("combined inbox held %d messages, want exactly one slot", len(got))
	}
	if got[0] != 123 {
		t.Fatalf("combined value = %d, want 123 (left-to-right fold of 1,2,3)", got[0])
	}
}

// allocGraph builds a deterministic pseudo-random graph big enough that a
// per-vertex or per-message allocation would dwarf the assertion budget.
func allocGraph(t testing.TB, n, deg int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(true, false)
	b.SetName("alloc-test")
	b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	for v := 0; v < n; v++ {
		b.AddVertex(int64(v))
	}
	state := uint64(1)
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

// TestPageRankSteadyStateAllocs is the arena-discipline regression guard:
// after a warm-up job has grown every message-plane buffer, a whole
// PageRank run — tens of supersteps over thousands of vertices — must
// allocate at most a small constant (the output array and a handful of
// setup cells), i.e. steady-state supersteps allocate nothing. The seed
// implementation allocated fresh staging slices and inbox rows every
// superstep, tens of thousands of objects on this graph.
func TestPageRankSteadyStateAllocs(t *testing.T) {
	g := allocGraph(t, 4000, 4)
	up, err := New().Upload(t.Context(), g, platform.RunConfig{Threads: 4, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*uploaded)
	defer u.Free()
	const iterations = 30
	run := func() {
		if _, err := prProgram(context.Background(), nil, u, iterations, 0.85, true); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: grows the job-lifetime arenas
	allocs := testing.AllocsPerRun(3, run)
	// Budget: the returned rank array, a few fixed setup allocations, and
	// one cluster round descriptor per superstep — nothing proportional to
	// vertices or messages (the seed allocated tens of thousands here).
	budget := float64(iterations + 2 + 8)
	if allocs > budget {
		t.Fatalf("steady-state PageRank run allocated %.0f objects, want <= %.0f "+
			"(per-superstep allocation has regressed)", allocs, budget)
	}
}

// TestCDLPSteadyStateAllocs guards the frontier CDLP program: the
// prev-label snapshot and histogram are pooled alongside the runner's
// message plane, so after warm-up a whole run — change notifications,
// barrier snapshot copies, early convergence — allocates only the label
// array plus a constant number of superstep descriptors.
func TestCDLPSteadyStateAllocs(t *testing.T) {
	g := allocGraph(t, 4000, 4)
	up, err := New().Upload(t.Context(), g, platform.RunConfig{Threads: 4, Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	u := up.(*uploaded)
	defer u.Free()
	run := func() {
		if _, err := cdlpProgram(context.Background(), nil, u, 10); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: grows the message plane and the CDLP scratch
	allocs := testing.AllocsPerRun(3, run)
	if allocs > 64 {
		t.Fatalf("steady-state CDLP run allocated %.0f objects, want <= 64 "+
			"(per-superstep allocation has regressed)", allocs)
	}
}
