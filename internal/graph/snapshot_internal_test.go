package graph

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// writeRawSnapshot writes g with the v2 section writer directly, with no
// Builder in between, so fixtures can hold arrays a Builder never emits.
func writeRawSnapshot(t testing.TB, g *Graph) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), g.name+".snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	h := headerFromGraph(g)
	if err := writeSnapshotV2(f, h, graphSections(g, h)); err != nil {
		t.Fatalf("%s: encode: %v", g.name, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Decode must reject checksum-valid snapshots whose arrays violate the
// sortedness invariants Index and HasEdge binary-search on. Such files
// cannot come from WriteSnapshotFile on a built Graph — they model
// external or hand-built .gsnap inputs — so the fixtures are assembled
// directly. Shape is a payload property: the heap open checks it, the
// O(header) mapped open by design does not.
func TestDecodeRejectsUnsortedSnapshot(t *testing.T) {
	unsortedIDs := &Graph{
		name: "bad-ids", directed: true, numEdges: 2,
		ids:    []int64{5, 3},
		outOff: []int64{0, 1, 2}, outAdj: []int32{1, 0},
		inOff: []int64{0, 1, 2}, inAdj: []int32{1, 0},
	}
	unsortedAdj := &Graph{
		name: "bad-adj", directed: true, numEdges: 2,
		ids:    []int64{1, 2, 3},
		outOff: []int64{0, 2, 2, 2}, outAdj: []int32{2, 1},
		inOff: []int64{0, 0, 1, 2}, inAdj: []int32{0, 0},
	}
	for _, g := range []*Graph{unsortedIDs, unsortedAdj} {
		data := writeRawSnapshot(t, g)
		buf := alignedBytes(len(data))
		copy(buf, data)
		if _, err := decodeSnapshot(buf, buf, true); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: decode: err = %v, want ErrBadSnapshot", g.name, err)
		}
		path := filepath.Join(t.TempDir(), "g.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSnapshotFile(path); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: read: err = %v, want ErrBadSnapshot", g.name, err)
		}
	}
}

// FuzzDecodeSnapshot drives the one snapshot parser with arbitrary bytes.
// It must never panic; every rejection must wrap ErrBadSnapshot; the
// header-only (mapped) mode must accept whatever the fully verified
// (heap) mode accepts; and an accepted image must be the one byte
// representation of its graph, so WriteSnapshotFile reproduces it.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, directed := range []bool{true, false} {
		for _, weighted := range []bool{true, false} {
			b := NewBuilder(directed, weighted)
			b.SetName("seed")
			b.SetOptions(BuildOptions{DedupEdges: true, DropSelfLoops: true})
			for i := int64(0); i < 40; i++ {
				b.AddWeightedEdge(i%13*3, (i*7+1)%13*3, float64(i)/4)
			}
			g, err := b.Build()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(writeRawSnapshot(f, g))
		}
	}
	empty, err := NewBuilder(false, false).Build()
	if err != nil {
		f.Fatal(err)
	}
	seed := writeRawSnapshot(f, empty)
	f.Add(seed)
	f.Add(seed[:snapV2NameOff+4])
	f.Add([]byte(nil))
	f.Add([]byte(snapshotMagic))
	f.Add([]byte("not a snapshot at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		buf := alignedBytes(len(data))
		copy(buf, data)
		_, mapErr := decodeSnapshot(buf, buf, false)
		if mapErr != nil && !errors.Is(mapErr, ErrBadSnapshot) {
			t.Fatalf("header-only decode: err = %v, want ErrBadSnapshot", mapErr)
		}
		g, err := decodeSnapshot(buf, buf, true)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("verified decode: err = %v, want ErrBadSnapshot", err)
			}
			return
		}
		if mapErr != nil {
			t.Fatalf("verified decode accepted what header-only decode rejected: %v", mapErr)
		}
		path := filepath.Join(t.TempDir(), "g.snap")
		if err := WriteSnapshotFile(path, g); err != nil {
			t.Fatal(err)
		}
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %d-byte image re-encodes to %d different bytes", len(data), len(again))
		}
	})
}
