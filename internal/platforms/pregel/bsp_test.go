package pregel

import (
	"context"
	"testing"

	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

// chainGraph returns 0 -> 1 -> 2 -> 3 (directed).
func chainGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges("chain", true, false, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3},
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func uploadFor(t *testing.T, g *graph.Graph) *uploaded {
	t.Helper()
	up, err := New().Upload(t.Context(), g, platform.RunConfig{Threads: 2, Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	return up.(*uploaded)
}

func TestBSPHaltingTerminates(t *testing.T) {
	u := uploadFor(t, chainGraph(t))
	defer u.Free()
	r := newRunner[int64](u, fixedSize[int64](8), nil)
	steps := 0
	err := r.run(context.Background(), func(w *worker[int64], v int32, msgs []int64, superstep int) {
		if superstep == 0 && v == 0 {
			w.Send(1, 7) // internal index 1
		}
		if superstep > steps {
			steps = superstep
		}
		w.VoteToHalt(v)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Superstep 0 runs all vertices; superstep 1 only the reactivated
	// message recipient; then everything is halted.
	if steps != 1 {
		t.Fatalf("ran up to superstep %d, want 1", steps)
	}
}

func TestBSPMessageDelivery(t *testing.T) {
	u := uploadFor(t, chainGraph(t))
	defer u.Free()
	r := newRunner[int64](u, fixedSize[int64](8), nil)
	var got []int64
	err := r.run(context.Background(), func(w *worker[int64], v int32, msgs []int64, superstep int) {
		if superstep == 0 && v == 0 {
			w.Send(2, 11)
			w.Send(2, 22)
		}
		if superstep == 1 && v == 2 {
			got = append(got, msgs...)
		}
		w.VoteToHalt(v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0]+got[1] != 33 {
		t.Fatalf("vertex 2 received %v, want both messages", got)
	}
}

func TestBSPCombinerCollapsesMessages(t *testing.T) {
	u := uploadFor(t, chainGraph(t))
	defer u.Free()
	min := func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}
	r := newRunner[int64](u, fixedSize[int64](8), min)
	var got []int64
	err := r.run(context.Background(), func(w *worker[int64], v int32, msgs []int64, superstep int) {
		if superstep == 0 && v == 0 {
			w.Send(3, 9)
			w.Send(3, 4)
			w.Send(3, 6)
		}
		if superstep == 1 && v == 3 {
			got = append(got, msgs...)
		}
		w.VoteToHalt(v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("combiner delivered %v, want the single minimum 4", got)
	}
}

func TestBSPAggregator(t *testing.T) {
	u := uploadFor(t, chainGraph(t))
	defer u.Free()
	r := newRunner[int64](u, fixedSize[int64](8), nil)
	var seen float64
	err := r.run(context.Background(), func(w *worker[int64], v int32, msgs []int64, superstep int) {
		switch superstep {
		case 0:
			w.Aggregate(1.5)
			return // stay active for one more superstep
		case 1:
			seen = w.Agg()
		}
		w.VoteToHalt(v)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Four vertices each aggregated 1.5 in superstep 0.
	if seen != 6 {
		t.Fatalf("aggregator = %v, want 6", seen)
	}
}

func TestBSPContextCancellation(t *testing.T) {
	u := uploadFor(t, chainGraph(t))
	defer u.Free()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := newRunner[int64](u, fixedSize[int64](8), nil)
	err := r.run(ctx, func(w *worker[int64], v int32, msgs []int64, superstep int) {})
	if err == nil {
		t.Fatal("cancelled context must abort the superstep loop")
	}
}

func TestUploadAdjacency(t *testing.T) {
	u := uploadFor(t, chainGraph(t))
	defer u.Free()
	if len(u.verts) != 4 {
		t.Fatalf("verts = %d, want 4", len(u.verts))
	}
	if len(u.verts[1].out) != 1 || u.verts[1].out[0] != 2 {
		t.Fatalf("vertex 1 out = %v, want [2]", u.verts[1].out)
	}
	if len(u.verts[1].in) != 1 || u.verts[1].in[0] != 0 {
		t.Fatalf("vertex 1 in = %v, want [0]", u.verts[1].in)
	}
}
