package graph_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"graphalytics/internal/graph"
)

// snapshotFixture builds a graph covering the tricky shapes: isolated
// vertices, sparse non-contiguous IDs, skewed degrees.
func snapshotFixture(t *testing.T, directed, weighted bool) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	b := graph.NewBuilder(directed, weighted)
	b.SetName("fixture")
	b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	b.AddVertex(0)
	b.AddVertex(1 << 50) // isolated
	for i := 0; i < 4000; i++ {
		b.AddWeightedEdge(rng.Int63n(300)*7, rng.Int63n(300)*7, float64(i)/3)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// assertGraphsEqual compares two graphs structurally: identity table,
// flags, counts, and full adjacency with weights in both directions.
func assertGraphsEqual(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.Name() != want.Name() || got.Directed() != want.Directed() || got.Weighted() != want.Weighted() {
		t.Fatalf("shape mismatch: got (%q,%v,%v), want (%q,%v,%v)",
			got.Name(), got.Directed(), got.Weighted(), want.Name(), want.Directed(), want.Weighted())
	}
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("size mismatch: got |V|=%d |E|=%d, want |V|=%d |E|=%d",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := int32(0); v < int32(want.NumVertices()); v++ {
		if got.VertexID(v) != want.VertexID(v) {
			t.Fatalf("vertex %d: id %d, want %d", v, got.VertexID(v), want.VertexID(v))
		}
		for _, dir := range []struct {
			name   string
			ga, wa []int32
			gw, ww []float64
			hasIn  bool
		}{
			{"out", got.OutNeighbors(v), want.OutNeighbors(v), got.OutWeights(v), want.OutWeights(v), false},
			{"in", got.InNeighbors(v), want.InNeighbors(v), got.InWeights(v), want.InWeights(v), true},
		} {
			if len(dir.ga) != len(dir.wa) {
				t.Fatalf("vertex %d: %s-degree %d, want %d", v, dir.name, len(dir.ga), len(dir.wa))
			}
			for i := range dir.wa {
				if dir.ga[i] != dir.wa[i] {
					t.Fatalf("vertex %d: %s-neighbor %d differs", v, dir.name, i)
				}
				if dir.ww != nil && dir.gw[i] != dir.ww[i] {
					t.Fatalf("vertex %d: %s-weight %d differs", v, dir.name, i)
				}
			}
		}
	}
}

// writeSnapshotBytes writes data as a snapshot file and returns its path.
func writeSnapshotBytes(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// snapshotBytes returns the WriteSnapshotFile encoding of g.
func snapshotBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := graph.WriteSnapshotFile(path, g); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// assertBadSnapshot requires both readers and the streamed payload check
// (VerifySnapshotFile) to reject path with ErrBadSnapshot. mapped=false
// skips the mapped open, for corruption only payload checks can see.
func assertBadSnapshot(t *testing.T, path, what string, mapped bool) {
	t.Helper()
	if _, err := graph.ReadSnapshotFile(path); !errors.Is(err, graph.ErrBadSnapshot) {
		t.Errorf("read %s: err = %v, want ErrBadSnapshot", what, err)
	}
	if err := graph.VerifySnapshotFile(path); !errors.Is(err, graph.ErrBadSnapshot) {
		t.Errorf("verify %s: err = %v, want ErrBadSnapshot", what, err)
	}
	if !mapped {
		return
	}
	g, err := graph.MapSnapshotFile(path)
	if errors.Is(err, graph.ErrMapUnsupported) {
		return
	}
	if !errors.Is(err, graph.ErrBadSnapshot) {
		if g != nil {
			g.Close()
		}
		t.Errorf("map %s: err = %v, want ErrBadSnapshot", what, err)
	}
}

// A decoded graph re-encodes to the bytes it was read from: the heap open
// loses nothing, and the format has one representation per graph.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for _, weighted := range []bool{true, false} {
			want := snapshotBytes(t, snapshotFixture(t, directed, weighted))
			got, err := graph.ReadSnapshotFile(writeSnapshotBytes(t, want))
			if err != nil {
				t.Fatalf("directed=%v weighted=%v: read: %v", directed, weighted, err)
			}
			if !bytes.Equal(snapshotBytes(t, got), want) {
				t.Fatalf("directed=%v weighted=%v: re-encoding differs", directed, weighted)
			}
		}
	}
}

// A graph with no vertices leaves every section but the one-entry offset
// table empty; both readers must still agree with the built graph.
func TestSnapshotRoundTripEmptyGraph(t *testing.T) {
	want, err := graph.NewBuilder(true, true).Build()
	if err != nil {
		t.Fatal(err)
	}
	path := writeSnapshotBytes(t, snapshotBytes(t, want))
	got, err := graph.ReadSnapshotFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	assertGraphsEqual(t, got, want)
	mapped, err := graph.MapSnapshotFile(path)
	if errors.Is(err, graph.ErrMapUnsupported) {
		return
	}
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	defer mapped.Close()
	assertGraphsEqual(t, mapped, want)
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	want := snapshotFixture(t, true, true)
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := graph.WriteSnapshotFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := graph.ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, got, want)
}

// Truncation at every section boundary — at its first byte, one byte in,
// one byte short of its end — fails both readers, for every
// directed/weighted combination and so every section table shape.
func TestSnapshotTruncatedIsBadSnapshot(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for _, weighted := range []bool{true, false} {
			full := snapshotBytes(t, snapshotFixture(t, directed, weighted))
			// The section table starts at byte 56: 7 rows of
			// {off u64, len u64, crc u32}.
			var cuts []int
			for i := 0; i < 7; i++ {
				off := int(binary.LittleEndian.Uint64(full[56+20*i:]))
				size := int(binary.LittleEndian.Uint64(full[64+20*i:]))
				if size > 0 {
					cuts = append(cuts, off, off+1, off+size-1)
				}
			}
			for _, n := range cuts {
				what := fmt.Sprintf("directed=%v weighted=%v truncated at %d", directed, weighted, n)
				assertBadSnapshot(t, writeSnapshotBytes(t, full[:n]), what, true)
			}
		}
	}
}

// One flipped bit anywhere in the file — header, padding or payload —
// fails the heap open.
func TestSnapshotBitFlipIsBadSnapshot(t *testing.T) {
	full := snapshotBytes(t, snapshotFixture(t, false, true))
	path := filepath.Join(t.TempDir(), "g.snap")
	for off := 0; off < len(full); off += 131 {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x10
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		assertBadSnapshot(t, path, fmt.Sprintf("bit flip at %d", off), false)
	}
}

// The version field follows the 8-byte magic. Version 1 is the retired
// stream format: its files are stale cache entries, not readable input.
func TestSnapshotWrongVersionIsBadSnapshot(t *testing.T) {
	full := snapshotBytes(t, snapshotFixture(t, false, false))
	for _, version := range []uint32{0, 1, 3, 0xFF} {
		mut := append([]byte(nil), full...)
		binary.LittleEndian.PutUint32(mut[8:], version)
		assertBadSnapshot(t, writeSnapshotBytes(t, mut), fmt.Sprintf("version %d", version), true)
	}
}

func TestSnapshotGarbageIsBadSnapshot(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		[]byte("not a snapshot at all"),
		bytes.Repeat([]byte{0xA5}, 5000),
		append([]byte("GLYTSNAP"), make([]byte, 4096)...),
	} {
		assertBadSnapshot(t, writeSnapshotBytes(t, data), fmt.Sprintf("%d garbage bytes", len(data)), true)
	}
}

func TestReadSnapshotFileMissing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.snap")
	_, readErr := graph.ReadSnapshotFile(path)
	for _, err := range []error{readErr, graph.VerifySnapshotFile(path)} {
		if err == nil || errors.Is(err, graph.ErrBadSnapshot) {
			t.Fatalf("missing file: err = %v, want plain not-exist error", err)
		}
		if !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("err = %v, want fs.ErrNotExist", err)
		}
	}
}
