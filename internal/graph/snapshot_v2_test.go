package graph_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"graphalytics/internal/graph"
)

// writeV2Fixture writes a fixture graph as a v2 snapshot file.
func writeV2Fixture(t *testing.T, directed, weighted bool) (string, *graph.Graph) {
	t.Helper()
	want := snapshotFixture(t, directed, weighted)
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := graph.WriteSnapshotFile(path, want); err != nil {
		t.Fatal(err)
	}
	return path, want
}

func TestSnapshotV2FileRoundTrip(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for _, weighted := range []bool{true, false} {
			path, want := writeV2Fixture(t, directed, weighted)
			got, err := graph.ReadSnapshotFile(path)
			if err != nil {
				t.Fatalf("directed=%v weighted=%v: %v", directed, weighted, err)
			}
			if got.Mapped() {
				t.Fatal("ReadSnapshotFile returned a mapped graph")
			}
			assertGraphsEqual(t, got, want)
		}
	}
}

func TestSnapshotV2EmptyGraph(t *testing.T) {
	b := graph.NewBuilder(false, false)
	b.AddVertex(42)
	want, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
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

// Truncations anywhere — mid-header, mid-section, one byte short — must
// fail cleanly with ErrBadSnapshot from both readers. MapSnapshotFile in
// particular must reject the file during header validation, before any
// mmap slice escapes: this is the no-SIGBUS guarantee.
func TestSnapshotV2TruncatedIsBadSnapshot(t *testing.T) {
	full := snapshotBytes(t, snapshotFixture(t, true, true))
	for _, n := range []int{0, 4, 11, 40, 150, 4096, len(full) / 2, len(full) - 1} {
		if n > len(full) {
			continue
		}
		assertBadSnapshot(t, writeSnapshotBytes(t, full[:n]), fmt.Sprintf("truncated at %d", n), true)
	}
}

// Bit flips in the header fail both readers; flips in section payloads
// fail the heap open (the mapped open intentionally skips payload CRCs).
// A header whose CRC was recomputed over a stray flag bit or a nonzero
// reserved word is not the graph's one byte representation either, and
// fails both readers.
func TestSnapshotV2CorruptIsBadSnapshot(t *testing.T) {
	full := snapshotBytes(t, snapshotFixture(t, false, true))
	mutate := func(off int) string {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x10
		return writeSnapshotBytes(t, mut)
	}
	// Header offsets: magic, version, flags, counts, section table.
	for _, off := range []int{0, 9, 13, 25, 60, 100, 190} {
		assertBadSnapshot(t, mutate(off), fmt.Sprintf("header flip at %d", off), true)
	}
	// Payload offsets: inside the page-aligned sections.
	for _, off := range []int{4096, len(full)/2 | 1, len(full) - 2} {
		assertBadSnapshot(t, mutate(off), fmt.Sprintf("payload flip at %d", off), false)
	}
	// Non-canonical files with a valid header CRC: a stray flag bit, a
	// nonzero reserved word, the last section one zero page later than
	// the layout puts it, a trailing byte. None is the graph's one byte
	// representation. The name is the header's last field, so the header
	// CRC sits just past it.
	crcOff := 196 + int(binary.LittleEndian.Uint32(full[16:20]))
	reCRC := func(mut []byte) []byte {
		binary.LittleEndian.PutUint32(mut[crcOff:], crc32.Checksum(mut[:crcOff], crc32.MakeTable(crc32.Castagnoli)))
		return mut
	}
	xor32 := func(off int, bits uint32) []byte {
		mut := append([]byte(nil), full...)
		binary.LittleEndian.PutUint32(mut[off:], binary.LittleEndian.Uint32(mut[off:])^bits)
		return reCRC(mut)
	}
	// Undirected and weighted: section 3 (outW) is the last one.
	lastOff := int(binary.LittleEndian.Uint64(full[56+20*3:]))
	late := append(append(append([]byte(nil), full[:lastOff]...), make([]byte, 4096)...), full[lastOff:]...)
	binary.LittleEndian.PutUint64(late[56+20*3:], uint64(lastOff+4096))
	binary.LittleEndian.PutUint64(late[48:], uint64(len(late)))
	for _, c := range []struct {
		what string
		data []byte
	}{
		{"stray flag bit 2", xor32(12, 1<<2)},
		{"stray flag bit 31", xor32(12, 1<<31)},
		{"reserved=1", xor32(20, 1)},
		{"last section a page late", reCRC(late)},
		{"a trailing byte", append(append([]byte(nil), full...), 0)},
	} {
		assertBadSnapshot(t, writeSnapshotBytes(t, c.data), c.what, true)
	}
}

// A graph written twice must produce identical bytes: the v2 layout is a
// pure function of the graph, which the builder-equivalence CRC tests
// depend on.
func TestSnapshotV2Deterministic(t *testing.T) {
	want := snapshotFixture(t, true, true)
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.snap"), filepath.Join(dir, "b.snap")
	if err := graph.WriteSnapshotFile(a, want); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteSnapshotFile(b, want); err != nil {
		t.Fatal(err)
	}
	ab, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatal("two writes of the same graph differ")
	}
}
