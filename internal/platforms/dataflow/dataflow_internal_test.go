package dataflow

import (
	"testing"

	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
)

func TestUploadRoutingTables(t *testing.T) {
	g, err := graph.FromEdges("g", true, false, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 0, Dst: 2},
	}, graph.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	up, err := New().Upload(t.Context(), g, platform.RunConfig{Threads: 1, Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Free()
	u := up.(*uploaded)

	if len(u.eparts) != 2*edgePartsPerMachine {
		t.Fatalf("edge partitions = %d, want %d", len(u.eparts), 2*edgePartsPerMachine)
	}
	if len(u.vparts) != 2*vertexPartsPerMachine {
		t.Fatalf("vertex partitions = %d, want %d", len(u.vparts), 2*vertexPartsPerMachine)
	}
	// Every stored edge's endpoints must appear in its partition's
	// routing tables, and all 4 arcs must be stored exactly once.
	total := 0
	for _, ep := range u.eparts {
		total += len(ep.src)
		for i, s := range ep.src {
			if !containsInt32(ep.needSrc, s) {
				t.Fatalf("needSrc misses %d", s)
			}
			if !containsInt32(ep.needDst, ep.dst[i]) {
				t.Fatalf("needDst misses %d", ep.dst[i])
			}
		}
	}
	if total != 4 {
		t.Fatalf("stored arcs = %d, want 4", total)
	}
	// Vertex partitions must cover all vertices exactly once.
	seen := make(map[int32]bool)
	for p, verts := range u.vparts {
		for _, v := range verts {
			if seen[v] {
				t.Fatalf("vertex %d in two partitions", v)
			}
			seen[v] = true
			if u.vpartOf[v] != int32(p) {
				t.Fatalf("vpartOf[%d] inconsistent", v)
			}
		}
	}
	if len(seen) != g.NumVertices() {
		t.Fatalf("vertex partitions cover %d vertices, want %d", len(seen), g.NumVertices())
	}
}

func containsInt32(xs []int32, x int32) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func TestDistinct(t *testing.T) {
	got := distinct([]int32{3, 1, 3, 2, 1})
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("distinct = %v", got)
	}
	if distinct(nil) != nil {
		t.Fatal("distinct(nil) must be nil")
	}
}
