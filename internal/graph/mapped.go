package graph

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// ErrMapUnsupported is returned by MapSnapshotFile on platforms without
// mmap support or whose byte order does not match the little-endian
// on-disk layout. Callers should fall back to ReadSnapshotFile.
var ErrMapUnsupported = errors.New("graph: snapshot mapping unsupported on this platform")

// hostLittleEndian reports whether the in-memory layout of the host
// matches the on-disk little-endian layout, which is what lets sections
// be reinterpreted in place.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// mapping is a refcounted mmap region. The Graph constructed over it
// holds one reference (dropped by Close or, as a safety net, by a
// finalizer); Retain hands additional references to owners like the
// graph store so their release on evict can never unmap memory an engine
// still reaches through a live *Graph.
type mapping struct {
	data []byte
	refs atomic.Int64
}

func (m *mapping) release() {
	if m.refs.Add(-1) == 0 {
		// Best-effort: an munmap failure leaks address space but cannot
		// corrupt anything, and no caller has a useful recovery.
		_ = munmapFile(m.data)
		m.data = nil
	}
}

// MapSnapshotFile opens a v2 snapshot as an mmap-backed Graph. The file
// is mapped whole and run through the same parser as ReadSnapshotFile,
// minus the payload checks: the header (its CRC, canonical fields and the
// section table's consistency with the file size) is validated, then the
// CSR arrays are sliced directly over the mapping. Open cost is O(header)
// no matter how large the graph is, and pages fault in through the page
// cache on first touch. Section payload CRCs are *not* verified on this
// path — run VerifySnapshotFile first, or use ReadSnapshotFile, when the
// file is untrusted.
//
// The returned Graph must eventually be released with Close (a finalizer
// backstops forgotten handles). Platforms without mmap or with a
// big-endian byte order yield ErrMapUnsupported; callers fall back to
// ReadSnapshotFile.
func MapSnapshotFile(path string) (*Graph, error) {
	if !mmapSupported || !hostLittleEndian {
		return nil, ErrMapUnsupported
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("graph: map snapshot: %w", err)
	}
	// The header is read with pread, not through the mapping: touching a
	// mapped page faults in its whole page-cache folio (2 MB on ext4 with
	// large folios), so parsing in place would grow RSS by up to the file
	// size on every open.
	head, err := readHeader(f, st.Size())
	if err != nil {
		return nil, err
	}
	data, err := mmapFile(f, st.Size())
	if err != nil {
		return nil, err
	}
	m := &mapping{data: data}
	m.refs.Store(1) // the Graph's own reference
	g, err := decodeSnapshot(head, data, false)
	if err != nil {
		m.release()
		return nil, err
	}
	g.mapped = m
	runtime.SetFinalizer(g, (*Graph).finalizeMapping)
	return g, nil
}

// readHeader reads the v2 header bytes at the start of f, a file of size
// bytes, with pread: first the fixed part that declares the header's
// length, then the whole header. A file shorter than its header yields
// the short read, which the header parser rejects.
func readHeader(f *os.File, size int64) ([]byte, error) {
	head, err := readAtMost(f, snapV2NameOff+4, size)
	if err != nil {
		return nil, err
	}
	n, err := v2HeaderLen(head)
	if err != nil {
		return nil, err
	}
	return readAtMost(f, int64(n), size)
}

// readAtMost reads the first min(n, size) bytes of f.
func readAtMost(f *os.File, n, size int64) ([]byte, error) {
	b := make([]byte, min(n, size))
	if _, err := f.ReadAt(b, 0); err != nil {
		return nil, badSnapshot("reading header: %v", err)
	}
	return b, nil
}

// Mapped reports whether the graph's arrays live in an mmap'd snapshot
// rather than on the heap.
func (g *Graph) Mapped() bool { return g.mapped != nil }

// MappedBytes returns the size of the backing mapping (0 for heap-backed
// graphs). The graph store charges these bytes separately from heap
// bytes: mapped pages are reclaimable by the OS under pressure, heap
// bytes are not.
func (g *Graph) MappedBytes() int64 {
	if g.mapped == nil {
		return 0
	}
	return int64(len(g.mapped.data))
}

// SizeBytes returns the real byte footprint of the graph's CSR arrays,
// mapped or heap-backed. This is the number LRU byte budgets should
// charge.
func (g *Graph) SizeBytes() int64 { return g.MemoryFootprint() }

// Retain pins the backing mapping and returns an idempotent release
// function. Owners that outlive unpredictable consumers (the graph
// store's LRU, which may evict while an engine still runs) take a
// reference per handout so the munmap happens only after every holder is
// done. For heap-backed graphs it is a no-op.
func (g *Graph) Retain() func() {
	if g.mapped == nil {
		return func() {}
	}
	m := g.mapped
	m.refs.Add(1)
	var released atomic.Bool
	return func() {
		if released.CompareAndSwap(false, true) {
			m.release()
		}
	}
}

// Close releases the graph's own reference on its backing mapping; the
// memory is unmapped — and the graph's arrays become invalid — once every
// Retain reference is also released. Safe to call on heap-backed graphs
// and more than once.
func (g *Graph) Close() error {
	if g.mapped != nil {
		runtime.SetFinalizer(g, nil)
		g.releaseSelf()
	}
	return nil
}

func (g *Graph) finalizeMapping() { g.releaseSelf() }

func (g *Graph) releaseSelf() {
	if g.mapped != nil && g.mapClosed.CompareAndSwap(false, true) {
		g.mapped.release()
	}
}
