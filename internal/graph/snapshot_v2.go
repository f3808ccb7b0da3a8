package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Snapshot format v2 stores every CSR array in its own page-aligned
// section whose file offset, byte length and CRC-32C are declared up front
// in a fixed-shape header, so a reader can validate the header in O(1) and
// then slice the sections in place, over an mmap (MapSnapshotFile) or over
// a heap copy of the file (ReadSnapshotFile). Version 1, an unaligned
// stream format, is no longer read: a v1 file fails the version check
// with ErrBadSnapshot like any other stale snapshot. Layout
// (little-endian):
//
//	magic        [8]byte  "GLYTSNAP"
//	version      uint32   (2)
//	flags        uint32   bit 0 directed, bit 1 weighted; other bits zero
//	nameLen      uint32
//	reserved     uint32   (zero; keeps the u64 fields 8-aligned)
//	numVertices  uint64
//	numEdges     uint64
//	arcs         uint64
//	fileSize     uint64   total file length, so truncation is caught
//	                      before any section is touched
//	section table: 7 × { off uint64, len uint64, crc uint32 }
//	               for ids, outOff, outAdj, outW, inOff, inAdj, inW
//	               (zero-length sections have off == 0, crc == 0)
//	name         [nameLen]byte
//	headerCRC    uint32   CRC-32C over every preceding byte
//	<zero padding to a snapPageSize boundary>
//	sections, each starting on a snapPageSize boundary, gaps zeroed
//
// The header CRC covers the section table, so a corrupt or truncated
// header fails before any offset is trusted; section offsets and lengths
// must additionally equal the layout the declared counts imply and the
// file must be exactly fileSize long, so a map-open can never slice past
// the mapping (no SIGBUS paths). Section CRCs let ReadSnapshotFile check the payload;
// the map-open skips them by design, which is what makes open time
// independent of graph size.

const (
	snapshotVersion2 = 2

	// snapPageSize is the section alignment. It matches the smallest page
	// size of the supported platforms, so a section start is always
	// page-aligned (and therefore 8-byte aligned for unsafe slicing).
	snapPageSize = 4096

	snapV2FixedBytes   = 56                      // magic .. fileSize
	snapV2SectionCount = 7                       // ids outOff outAdj outW inOff inAdj inW
	snapV2TableBytes   = snapV2SectionCount * 20 // off u64 + len u64 + crc u32
	snapV2NameOff      = snapV2FixedBytes + snapV2TableBytes
)

// Section indices in the v2 table.
const (
	secIDs = iota
	secOutOff
	secOutAdj
	secOutW
	secInOff
	secInAdj
	secInW
)

// v2Section is one parsed section-table row.
type v2Section struct {
	off  int64
	size int64
	crc  uint32
}

// v2Header is the parsed (and validated) v2 header.
type v2Header struct {
	flags    uint32
	name     string
	nVerts   int64
	numEdges int64
	arcs     int64
	fileSize int64
	secs     [snapV2SectionCount]v2Section
}

func (h *v2Header) directed() bool { return h.flags&snapFlagDirected != 0 }
func (h *v2Header) weighted() bool { return h.flags&snapFlagWeighted != 0 }

// headerLen returns the byte length of the header including name and
// trailing header CRC.
func (h *v2Header) headerLen() int64 { return int64(snapV2NameOff + len(h.name) + 4) }

// sectionSizes returns the byte length every section must have given the
// header's counts and flags.
func (h *v2Header) sectionSizes() [snapV2SectionCount]int64 {
	var sz [snapV2SectionCount]int64
	sz[secIDs] = 8 * h.nVerts
	sz[secOutOff] = 8 * (h.nVerts + 1)
	sz[secOutAdj] = 4 * h.arcs
	if h.weighted() {
		sz[secOutW] = 8 * h.arcs
	}
	if h.directed() {
		sz[secInOff] = 8 * (h.nVerts + 1)
		sz[secInAdj] = 4 * h.arcs
		if h.weighted() {
			sz[secInW] = 8 * h.arcs
		}
	}
	return sz
}

// layout assigns ascending page-aligned offsets to every non-empty
// section and computes fileSize. The layout is a pure function of the
// sizes, which is what makes the v2 bytes of a graph identical no matter
// whether they were produced by WriteSnapshotFile or by the out-of-core
// builder.
func (h *v2Header) layout() {
	off := alignPage(h.headerLen())
	sizes := h.sectionSizes()
	for i, sz := range sizes {
		if sz == 0 {
			h.secs[i] = v2Section{}
			continue
		}
		h.secs[i].off = off
		h.secs[i].size = sz
		off = alignPage(off + sz)
	}
	// fileSize ends at the last byte of the last non-empty section, not
	// at the next page boundary: trailing padding would be unverifiable
	// dead weight.
	end := h.headerLen()
	for _, s := range h.secs {
		if s.size > 0 && s.off+s.size > end {
			end = s.off + s.size
		}
	}
	h.fileSize = end
}

func alignPage(off int64) int64 {
	return (off + snapPageSize - 1) &^ (snapPageSize - 1)
}

// marshal renders the header bytes, including the trailing header CRC.
func (h *v2Header) marshal() []byte {
	buf := make([]byte, 0, h.headerLen())
	buf = append(buf, snapshotMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, snapshotVersion2)
	buf = binary.LittleEndian.AppendUint32(buf, h.flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(h.name)))
	buf = binary.LittleEndian.AppendUint32(buf, 0) // reserved
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.nVerts))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.numEdges))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.arcs))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.fileSize))
	for _, s := range h.secs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.off))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.size))
		buf = binary.LittleEndian.AppendUint32(buf, s.crc)
	}
	buf = append(buf, h.name...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
	return buf
}

// parseV2Header validates and parses the v2 header (magic through header
// CRC) at the start of data. Every failure wraps ErrBadSnapshot. On
// success the header is canonical — no unknown flag bits, a zero reserved
// word, a section table equal to the layout its counts imply — and
// therefore internally consistent: counts are bounded, sections are
// page-aligned, non-overlapping and inside fileSize — the invariants
// that make the subsequent in-place slicing SIGBUS-free.
func parseV2Header(data []byte) (*v2Header, error) {
	want, err := v2HeaderLen(data)
	if err != nil {
		return nil, err
	}
	if len(data) < want {
		return nil, badSnapshot("v2 header truncated at %d bytes, want %d", len(data), want)
	}
	hdr := data[:want]
	nameLen := want - snapV2NameOff - 4
	gotCRC := binary.LittleEndian.Uint32(hdr[want-4:])
	if wantCRC := crc32.Checksum(hdr[:want-4], crcTable); gotCRC != wantCRC {
		return nil, badSnapshot("header checksum %08x, want %08x", gotCRC, wantCRC)
	}
	// A graph has exactly one v2 byte representation, so bits and words
	// the writer always zeroes must be zero.
	flags := binary.LittleEndian.Uint32(hdr[12:16])
	if flags&^(snapFlagDirected|snapFlagWeighted) != 0 {
		return nil, badSnapshot("unknown flag bits %#x", flags)
	}
	if r := binary.LittleEndian.Uint32(hdr[20:24]); r != 0 {
		return nil, badSnapshot("reserved word %d, want 0", r)
	}

	h := &v2Header{
		flags: flags,
		name:  string(hdr[snapV2NameOff : snapV2NameOff+nameLen]),
	}
	u64 := func(off int) (int64, bool) {
		v := binary.LittleEndian.Uint64(hdr[off : off+8])
		return int64(v), v < 1<<62
	}
	var ok [3]bool
	h.nVerts, ok[0] = u64(24)
	h.numEdges, ok[1] = u64(32)
	h.arcs, ok[2] = u64(40)
	h.fileSize = int64(binary.LittleEndian.Uint64(hdr[48:56]))
	if !ok[0] || !ok[1] || !ok[2] {
		return nil, badSnapshot("v2 header counts out of range")
	}
	if h.nVerts > math.MaxInt32 || h.arcs > snapshotMaxElems || h.numEdges > h.arcs {
		return nil, badSnapshot("sizes |V|=%d |E|=%d arcs=%d", h.nVerts, h.numEdges, h.arcs)
	}
	if h.directed() {
		if h.numEdges != h.arcs {
			return nil, badSnapshot("directed |E|=%d != arcs=%d", h.numEdges, h.arcs)
		}
	} else if h.arcs != 2*h.numEdges {
		return nil, badSnapshot("undirected arcs=%d != 2x|E|=%d", h.arcs, h.numEdges)
	}

	// The layout is a pure function of the name, counts and flags, so the
	// section table must match it exactly. That makes every section
	// page-aligned, ascending, non-overlapping and inside fileSize by
	// construction, and leaves a graph one byte representation.
	canon := &v2Header{flags: h.flags, name: h.name, nVerts: h.nVerts, numEdges: h.numEdges, arcs: h.arcs}
	canon.layout()
	if h.fileSize != canon.fileSize {
		return nil, badSnapshot("file size %d, layout ends at %d", h.fileSize, canon.fileSize)
	}
	for i := range h.secs {
		row := hdr[snapV2FixedBytes+20*i:]
		s := v2Section{
			off:  int64(binary.LittleEndian.Uint64(row[0:8])),
			size: int64(binary.LittleEndian.Uint64(row[8:16])),
			crc:  binary.LittleEndian.Uint32(row[16:20]),
		}
		if want := canon.secs[i]; s.off != want.off || s.size != want.size {
			return nil, badSnapshot("section %d at [%d, +%d), layout puts it at [%d, +%d)", i, s.off, s.size, want.off, want.size)
		}
		if s.size == 0 && s.crc != 0 {
			return nil, badSnapshot("empty section %d has crc %08x", i, s.crc)
		}
		h.secs[i] = s
	}
	return h, nil
}

// v2HeaderLen checks the fields at the start of b that locate the end of
// the header — magic, version, name length — and returns the header's
// byte length. b may be shorter than the header it declares.
func v2HeaderLen(b []byte) (int, error) {
	if len(b) < snapV2NameOff+4 {
		return 0, badSnapshot("v2 header truncated at %d bytes", len(b))
	}
	if string(b[:8]) != snapshotMagic {
		return 0, badSnapshot("magic %q", b[:8])
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != snapshotVersion2 {
		return 0, badSnapshot("version %d, want %d", v, snapshotVersion2)
	}
	nameLen := binary.LittleEndian.Uint32(b[16:20])
	if nameLen > 1<<20 {
		return 0, badSnapshot("name length %d", nameLen)
	}
	return snapV2NameOff + int(nameLen) + 4, nil
}

// headerFromGraph derives the v2 header (with layout) for a graph.
func headerFromGraph(g *Graph) *v2Header {
	h := &v2Header{
		name:     g.name,
		nVerts:   int64(len(g.ids)),
		numEdges: g.numEdges,
		arcs:     int64(len(g.outAdj)),
	}
	if g.directed {
		h.flags |= snapFlagDirected
	}
	if g.weighted {
		h.flags |= snapFlagWeighted
	}
	h.layout()
	return h
}

// crcWriter computes a running CRC-32C over everything written through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crcTable, p)
	return c.w.Write(p)
}

// v2SectionSource emits one section's payload bytes; size must match what
// emit writes exactly.
type v2SectionSource struct {
	size int64
	emit func(io.Writer) error
}

// writeSnapshotV2 writes a complete v2 snapshot to f (which must be empty
// and seekable): a zeroed header region, the page-aligned sections with
// their CRCs computed as they stream through, then the finished header
// patched in at offset 0. It does not sync or close f.
func writeSnapshotV2(f *os.File, h *v2Header, sections [snapV2SectionCount]v2SectionSource) error {
	for i := range sections {
		if sections[i].size != h.secs[i].size {
			return fmt.Errorf("graph: encode snapshot v2: section %d source size %d, want %d",
				i, sections[i].size, h.secs[i].size)
		}
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	pos, err := writeZeros(bw, 0, h.headerLen())
	if err != nil {
		return err
	}
	for i := range sections {
		if h.secs[i].size == 0 {
			continue
		}
		if pos, err = writeZeros(bw, pos, h.secs[i].off); err != nil {
			return err
		}
		cw := &crcWriter{w: bw}
		if err := sections[i].emit(cw); err != nil {
			return fmt.Errorf("graph: encode snapshot v2: section %d: %w", i, err)
		}
		h.secs[i].crc = cw.crc
		pos += h.secs[i].size
	}
	if pos != h.fileSize {
		return fmt.Errorf("graph: encode snapshot v2: wrote %d bytes, want %d", pos, h.fileSize)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graph: encode snapshot v2: %w", err)
	}
	if _, err := f.WriteAt(h.marshal(), 0); err != nil {
		return fmt.Errorf("graph: encode snapshot v2: header: %w", err)
	}
	return nil
}

// writeZeros pads from pos to target and returns the new position.
func writeZeros(w io.Writer, pos, target int64) (int64, error) {
	var zeros [snapPageSize]byte
	for pos < target {
		n := min(int64(len(zeros)), target-pos)
		if _, err := w.Write(zeros[:n]); err != nil {
			return pos, fmt.Errorf("graph: encode snapshot v2: %w", err)
		}
		pos += n
	}
	return pos, nil
}

// graphSections builds the section sources for an in-memory graph.
func graphSections(g *Graph, h *v2Header) [snapV2SectionCount]v2SectionSource {
	var secs [snapV2SectionCount]v2SectionSource
	int64Sec := func(a []int64) v2SectionSource {
		return v2SectionSource{size: 8 * int64(len(a)), emit: func(w io.Writer) error { return writeInt64s(w, a) }}
	}
	int32Sec := func(a []int32) v2SectionSource {
		return v2SectionSource{size: 4 * int64(len(a)), emit: func(w io.Writer) error { return writeInt32s(w, a) }}
	}
	floatSec := func(a []float64) v2SectionSource {
		return v2SectionSource{size: 8 * int64(len(a)), emit: func(w io.Writer) error { return writeFloat64s(w, a) }}
	}
	secs[secIDs] = int64Sec(g.ids)
	secs[secOutOff] = int64Sec(g.outOff)
	secs[secOutAdj] = int32Sec(g.outAdj)
	if h.weighted() {
		secs[secOutW] = floatSec(g.outW)
	}
	if h.directed() {
		secs[secInOff] = int64Sec(g.inOff)
		secs[secInAdj] = int32Sec(g.inAdj)
		if h.weighted() {
			secs[secInW] = floatSec(g.inW)
		}
	}
	return secs
}

// installSnapshot writes a snapshot into path atomically: build writes the
// content into a temp file in the same directory, which is then fsynced
// and renamed into place so readers never observe a partial snapshot.
func installSnapshot(path string, build func(*os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("graph: snapshot temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := build(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("graph: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("graph: close snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("graph: install snapshot: %w", err)
	}
	return nil
}
