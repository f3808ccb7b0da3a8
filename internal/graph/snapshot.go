package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"
)

// A snapshot persists a built graph's CSR arrays verbatim, so a cached
// dataset loads back without re-parsing text or re-running a generator.
// The on-disk layout is the page-aligned v2 format described in
// snapshot_v2.go. This file holds the entry points and the one parser:
// decodeSnapshot reads a complete snapshot image from a byte slice and
// slices the CSR arrays over it in place. ReadSnapshotFile runs it over a
// heap copy of the file with every payload check; MapSnapshotFile runs it
// over an mmap of the file with header checks only. Every failure caused
// by the bytes themselves wraps ErrBadSnapshot, so callers can treat a
// stale or corrupt snapshot as a cache miss rather than a hard failure.

// ErrBadSnapshot is wrapped by every decode failure caused by the snapshot
// bytes themselves (bad magic, unknown version, truncation, checksum
// mismatch, inconsistent header). Callers should treat it as "regenerate".
var ErrBadSnapshot = errors.New("graph: bad snapshot")

const (
	snapshotMagic = "GLYTSNAP"

	snapFlagDirected = 1 << 0
	snapFlagWeighted = 1 << 1

	// snapshotMaxElems bounds header-declared array lengths. Vertex counts
	// must fit int32 anyway (internal indices are int32).
	snapshotMaxElems = 1 << 34
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64 and
// arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// checkShape validates structural invariants a checksum cannot: offsets
// must be monotonic and in bounds, adjacency indices must name real
// vertices, and the identifier table and per-vertex neighbor lists must
// be strictly ascending (Index and HasEdge binary-search them). This
// keeps a syntactically valid but inconsistent snapshot from silently
// corrupting kernel results later.
func (g *Graph) checkShape() error {
	n := int64(len(g.ids))
	for i := int64(1); i < n; i++ {
		if g.ids[i-1] >= g.ids[i] {
			return badSnapshot("identifier table not strictly ascending at %d", i)
		}
	}
	check := func(off []int64, adj []int32) error {
		if int64(len(off)) != n+1 || off[0] != 0 || off[n] != int64(len(adj)) {
			return badSnapshot("offset table shape")
		}
		for v := int64(0); v < n; v++ {
			if off[v] > off[v+1] {
				return badSnapshot("offsets not monotonic at vertex %d", v)
			}
			for i := off[v] + 1; i < off[v+1]; i++ {
				if adj[i-1] >= adj[i] {
					return badSnapshot("adjacency of vertex %d not strictly ascending", v)
				}
			}
		}
		for _, u := range adj {
			if int64(u) < 0 || int64(u) >= n {
				return badSnapshot("adjacency index %d out of range", u)
			}
		}
		return nil
	}
	if err := check(g.outOff, g.outAdj); err != nil {
		return err
	}
	if g.directed {
		return check(g.inOff, g.inAdj)
	}
	return nil
}

func badSnapshot(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
}

// WriteSnapshotFile atomically writes g's snapshot to path in the v2
// page-aligned format (mmap-able via MapSnapshotFile): the bytes land in
// a temporary file in the same directory which is fsynced and renamed
// into place, so readers never observe a partial snapshot.
func WriteSnapshotFile(path string, g *Graph) error {
	h := headerFromGraph(g)
	return installSnapshot(path, func(f *os.File) error {
		return writeSnapshotV2(f, h, graphSections(g, h))
	})
}

// ReadSnapshotFile reads a snapshot written by WriteSnapshotFile onto the
// heap. The whole file is read into one 8-aligned buffer, fully verified
// (header, zero padding, every section CRC, structural shape), and the
// CSR arrays are sliced over that buffer in place. Errors from corrupt
// content wrap ErrBadSnapshot; a missing file surfaces as an
// fs.ErrNotExist error.
func ReadSnapshotFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("graph: read snapshot: %w", err)
	}
	if st.Size() > math.MaxInt {
		return nil, badSnapshot("file is %d bytes", st.Size())
	}
	data := alignedBytes(int(st.Size()))
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, badSnapshot("reading %d bytes: %v", len(data), err)
	}
	return decodeSnapshot(data, data, true)
}

// alignedBytes returns an n-byte buffer that starts on an 8-byte
// boundary, so every page-aligned section in it is aligned for its
// element type.
func alignedBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}

// decodeSnapshot parses a complete snapshot image. data must start on an
// 8-byte boundary; the returned Graph's arrays alias it. head holds the
// same file's leading bytes, at least its header: heap opens pass data
// itself, the mapped open a copy it read without touching the mapping.
// The header is always validated, and data must be exactly the size the
// header declares: with parseV2Header's section bounds, that keeps every
// slice inside data (for a mapping, no SIGBUS). verify additionally
// checks the zero padding, every section CRC and the structural shape,
// which reads the whole payload; mapped opens skip it so their cost
// stays O(header). On a big-endian host verify must be set: the sections
// are swapped to host order in place once their CRCs have passed.
func decodeSnapshot(head, data []byte, verify bool) (*Graph, error) {
	h, err := parseV2Header(head)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != h.fileSize {
		return nil, badSnapshot("file is %d bytes, header declares %d", len(data), h.fileSize)
	}
	if verify {
		inPlace := func(off, n int64) ([]byte, error) { return data[off : off+n], nil }
		if err := verifySections(h, inPlace); err != nil {
			return nil, err
		}
		if !hostLittleEndian {
			swapSections(data, h)
		}
	}
	g := &Graph{
		name:     h.name,
		directed: h.directed(),
		weighted: h.weighted(),
		numEdges: h.numEdges,
	}
	g.ids = mapInt64s(data, h.secs[secIDs])
	g.outOff = mapInt64s(data, h.secs[secOutOff])
	g.outAdj = mapInt32s(data, h.secs[secOutAdj])
	g.outW = mapFloat64s(data, h.secs[secOutW])
	if g.directed {
		g.inOff = mapInt64s(data, h.secs[secInOff])
		g.inAdj = mapInt32s(data, h.secs[secInAdj])
		g.inW = mapFloat64s(data, h.secs[secInW])
	} else {
		g.inOff, g.inAdj, g.inW = g.outOff, g.outAdj, g.outW
	}
	if verify {
		if err := g.checkShape(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// verifySections checks that the gaps before every section are zero —
// the one region no CRC covers, and the determinism contract says a
// graph has exactly one v2 byte representation — and that every
// section's CRC matches the header. read returns the file's bytes
// starting at off, at most n of them and at least one: the heap reader
// hands out its buffer in place, VerifySnapshotFile reads chunks with
// pread.
func verifySections(h *v2Header, read func(off, n int64) ([]byte, error)) error {
	pos := h.headerLen()
	for i, s := range h.secs {
		if s.size == 0 {
			continue
		}
		for pos < s.off {
			b, err := read(pos, s.off-pos)
			if err != nil {
				return err
			}
			if !allZero(b) {
				return badSnapshot("nonzero padding before section %d", i)
			}
			pos += int64(len(b))
		}
		var crc uint32
		for end := s.off + s.size; pos < end; {
			b, err := read(pos, end-pos)
			if err != nil {
				return err
			}
			crc = crc32.Update(crc, crcTable, b)
			pos += int64(len(b))
		}
		if crc != s.crc {
			return badSnapshot("section %d checksum %08x, want %08x", i, crc, s.crc)
		}
	}
	return nil
}

// verifyChunk is the read size of VerifySnapshotFile: the most it holds
// in memory at once, whatever the file size.
const verifyChunk = 1 << 20

// VerifySnapshotFile runs the payload checks MapSnapshotFile skips — the
// header, the zero padding before every section and every section CRC —
// over the file at path without mapping it or reading it whole: the file
// is streamed with pread through one buffer of at most verifyChunk
// bytes, so its cost is one sequential read and its memory is constant.
// Callers that map a snapshot they did not just write run it first,
// since a corrupt payload in a mapped graph is otherwise only found by
// the kernel that indexes out of range. Errors from corrupt content wrap
// ErrBadSnapshot; a missing file surfaces as an fs.ErrNotExist error.
func VerifySnapshotFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("graph: verify snapshot: %w", err)
	}
	head, err := readHeader(f, st.Size())
	if err != nil {
		return err
	}
	h, err := parseV2Header(head)
	if err != nil {
		return err
	}
	if st.Size() != h.fileSize {
		return badSnapshot("file is %d bytes, header declares %d", st.Size(), h.fileSize)
	}
	buf := make([]byte, min(h.fileSize, verifyChunk))
	return verifySections(h, func(off, n int64) ([]byte, error) {
		b := buf[:min(int64(len(buf)), n)]
		if _, err := f.ReadAt(b, off); err != nil {
			return nil, badSnapshot("reading at %d: %v", off, err)
		}
		return b, nil
	})
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// swapSections rewrites every section from the on-disk little-endian
// order to host order in place.
func swapSections(data []byte, h *v2Header) {
	for i, s := range h.secs {
		b := data[s.off : s.off+s.size]
		if i == secOutAdj || i == secInAdj {
			for j := 0; j < len(b); j += 4 {
				binary.NativeEndian.PutUint32(b[j:], binary.LittleEndian.Uint32(b[j:]))
			}
			continue
		}
		for j := 0; j < len(b); j += 8 {
			binary.NativeEndian.PutUint64(b[j:], binary.LittleEndian.Uint64(b[j:]))
		}
	}
}

// The section slicers reinterpret snapshot bytes in place. Safety rests on
// parseV2Header's invariants plus an 8-aligned data start: offsets are
// page-aligned (hence aligned for every element type), and off+size lies
// inside data.

func mapInt64s(data []byte, s v2Section) []int64 {
	if s.size == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&data[s.off])), s.size/8)
}

func mapInt32s(data []byte, s v2Section) []int32 {
	if s.size == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&data[s.off])), s.size/4)
}

func mapFloat64s(data []byte, s v2Section) []float64 {
	if s.size == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&data[s.off])), s.size/8)
}

// Bulk little-endian slice encoders for the section writers. A chunk
// buffer keeps the conversion allocation-free per element and lets bufio
// do large writes.

const snapChunk = 8192 // elements per conversion chunk

func writeInt64s(w io.Writer, a []int64) error {
	buf := make([]byte, 8*snapChunk)
	for len(a) > 0 {
		n := min(len(a), snapChunk)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(a[i]))
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return fmt.Errorf("graph: encode snapshot: %w", err)
		}
		a = a[n:]
	}
	return nil
}

func writeInt32s(w io.Writer, a []int32) error {
	buf := make([]byte, 4*snapChunk)
	for len(a) > 0 {
		n := min(len(a), snapChunk)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(a[i]))
		}
		if _, err := w.Write(buf[:4*n]); err != nil {
			return fmt.Errorf("graph: encode snapshot: %w", err)
		}
		a = a[n:]
	}
	return nil
}

func writeFloat64s(w io.Writer, a []float64) error {
	buf := make([]byte, 8*snapChunk)
	for len(a) > 0 {
		n := min(len(a), snapChunk)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(a[i]))
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return fmt.Errorf("graph: encode snapshot: %w", err)
		}
		a = a[n:]
	}
	return nil
}
