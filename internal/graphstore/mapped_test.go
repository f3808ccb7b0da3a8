package graphstore_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/graph"
	"graphalytics/internal/graphstore"
	"graphalytics/internal/validation"
)

// In mmap mode, a second process (here: a second store over the same
// directory) serves the snapshot as a mapped graph, charged to the mapped
// budget rather than the heap budget.
func TestMapSnapshotsResidency(t *testing.T) {
	dir := t.TempDir()
	s1 := graphstore.New(graphstore.Options{Dir: dir})
	want, err := s1.Load("k@g1", func() (*graph.Graph, error) { return testGraph(t, 3), nil })
	if err != nil {
		t.Fatal(err)
	}

	s2 := graphstore.New(graphstore.Options{Dir: dir, MapSnapshots: true})
	r, err := s2.Get("k@g1", func() (*graph.Graph, error) {
		t.Fatal("warm snapshot must not rebuild")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Source != graphstore.SourceSnapshot {
		t.Fatalf("source = %v, want snapshot", r.Source)
	}
	if !r.Graph.Mapped() {
		t.Fatal("mmap mode served a heap graph from a v2 snapshot")
	}
	if r.MappedBytes <= 0 {
		t.Fatalf("MappedBytes = %d, want > 0", r.MappedBytes)
	}
	if r.Bytes != want.SizeBytes() {
		t.Fatalf("Bytes = %d, want %d", r.Bytes, want.SizeBytes())
	}
	if s2.HeapBytes() != 0 {
		t.Fatalf("HeapBytes = %d, want 0 (graph is mapped)", s2.HeapBytes())
	}
	if s2.MappedBytes() != r.MappedBytes {
		t.Fatalf("store MappedBytes = %d, want %d", s2.MappedBytes(), r.MappedBytes)
	}
	// Element-wise identical to the built graph.
	if r.Graph.NumVertices() != want.NumVertices() || r.Graph.NumEdges() != want.NumEdges() {
		t.Fatal("mapped graph differs from built graph")
	}
}

// writeV1Snapshot writes an undirected, unweighted g in the retired v1
// stream format (magic, version 1, flags, name, counts, raw
// little-endian arrays, trailing CRC-32C), as older builds left it in
// cache directories.
func writeV1Snapshot(t *testing.T, path string, g *graph.Graph) {
	t.Helper()
	if g.Directed() || g.Weighted() {
		t.Fatal("writeV1Snapshot encodes undirected unweighted graphs only")
	}
	n := int32(g.NumVertices())
	var off []uint64
	var adj []int32
	for v := int32(0); v < n; v++ {
		off = append(off, uint64(len(adj)))
		adj = append(adj, g.OutNeighbors(v)...)
	}
	off = append(off, uint64(len(adj)))

	buf := []byte("GLYTSNAP")
	buf = binary.LittleEndian.AppendUint32(buf, 1) // version
	buf = binary.LittleEndian.AppendUint32(buf, 0) // flags
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(g.Name())))
	buf = append(buf, g.Name()...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.NumEdges()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(adj)))
	for _, id := range g.IDs() {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	}
	for _, o := range off {
		buf = binary.LittleEndian.AppendUint64(buf, o)
	}
	for _, u := range adj {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(u))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A v1 snapshot left by an older build is a stale cache entry in mmap
// mode too: it is reported corrupt, rebuilt, rewritten as v2, and the
// next load maps the rewritten file.
func TestMapSnapshotsUpgradesV1(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 2)
	var corrupt int
	s := graphstore.New(graphstore.Options{Dir: dir, MapSnapshots: true, OnEvent: func(e graphstore.Event) {
		if e.Type == graphstore.EventSnapshotCorrupt {
			corrupt++
			if !errors.Is(e.Err, graph.ErrBadSnapshot) {
				t.Errorf("corrupt event err = %v, want ErrBadSnapshot", e.Err)
			}
		}
	}})
	path := s.SnapshotPath("k@g1")
	writeV1Snapshot(t, path, g)

	var builds int
	build := func() (*graph.Graph, error) { builds++; return testGraph(t, 2), nil }
	r, err := s.Get("k@g1", build)
	if err != nil {
		t.Fatal(err)
	}
	if r.Source != graphstore.SourceBuilt || builds != 1 || corrupt != 1 {
		t.Fatalf("source=%v builds=%d corrupt events=%d, want one rebuild after one corrupt event", r.Source, builds, corrupt)
	}
	head, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(head[8:12]); v != 2 {
		t.Fatalf("snapshot on disk is version %d after the rebuild, want 2", v)
	}

	if !s.Evict("k@g1") {
		t.Fatal("Evict must drop the resident entry")
	}
	r2, err := s.Get("k@g1", build)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Source != graphstore.SourceSnapshot || builds != 1 {
		t.Fatalf("source=%v builds=%d, want the rewritten snapshot", r2.Source, builds)
	}
	if !r2.Graph.Mapped() {
		t.Fatal("the rewritten v2 snapshot must be served mapped")
	}
	if r2.Graph.NumVertices() != g.NumVertices() || r2.Graph.NumEdges() != g.NumEdges() {
		t.Fatal("mapped graph differs from the built graph")
	}
	r2.Graph.Close()
}

// ringGraph builds an undirected ring of n vertices (n a multiple of 3)
// with chords, big
// enough that one adjacency entry with its high byte set points far
// outside the vertex range.
func ringGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(false, false)
	b.SetName("ring")
	for i := 0; i < n; i++ {
		b.AddEdge(int64(i), int64((i+1)%n))
		if i%3 == 0 {
			b.AddEdge(int64(i), int64((i+n/3)%n))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// outAdjSection reads the outAdj row of a v2 snapshot's section table:
// the table starts after the 56-byte fixed header and holds one
// {off u64, len u64, crc u32} row per section, outAdj being the third
// (see the layout in internal/graph/snapshot_v2.go).
func outAdjSection(t *testing.T, snap []byte) (off, size int64) {
	t.Helper()
	const table, rowBytes, outAdjRow = 56, 20, 2
	row := snap[table+rowBytes*outAdjRow:]
	off = int64(binary.LittleEndian.Uint64(row[0:8]))
	size = int64(binary.LittleEndian.Uint64(row[8:16]))
	if off == 0 || size == 0 || off+size > int64(len(snap)) {
		t.Fatalf("outAdj section at [%d, +%d) in a %d-byte snapshot", off, size, len(snap))
	}
	return off, size
}

// A snapshot found on disk with one corrupt adjacency byte is rebuilt in
// mmap mode, as on the heap path, instead of being mapped and crashing
// the first kernel that follows the corrupt index.
func TestMapSnapshotsRebuildsCorruptPayload(t *testing.T) {
	dir := t.TempDir()
	const n = 240
	warm := graphstore.New(graphstore.Options{Dir: dir})
	if _, err := warm.Load("k@g1", func() (*graph.Graph, error) { return ringGraph(t, n), nil }); err != nil {
		t.Fatal(err)
	}
	path := warm.SnapshotPath("k@g1")
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off, size := outAdjSection(t, snap)
	// Set the high byte of a middle adjacency entry: the index becomes
	// about 2^31, far outside the vertex range.
	snap[off+(size/8)*4+3] = 0x7f
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	// The O(header) map-open alone accepts the file, so only the
	// store's payload check stands between the corrupt index and a
	// kernel.
	m, err := graph.MapSnapshotFile(path)
	if err != nil {
		t.Fatalf("map-open rejected a payload-only corruption: %v", err)
	}
	m.Close()
	if err := graph.VerifySnapshotFile(path); !errors.Is(err, graph.ErrBadSnapshot) {
		t.Fatalf("VerifySnapshotFile = %v, want ErrBadSnapshot", err)
	}

	var corrupt int
	s := graphstore.New(graphstore.Options{Dir: dir, MapSnapshots: true, OnEvent: func(e graphstore.Event) {
		if e.Type == graphstore.EventSnapshotCorrupt {
			corrupt++
		}
	}})
	var builds int
	build := func() (*graph.Graph, error) { builds++; return ringGraph(t, n), nil }
	r, err := s.Get("k@g1", build)
	if err != nil {
		t.Fatal(err)
	}
	if r.Source != graphstore.SourceBuilt || builds != 1 || corrupt != 1 {
		t.Fatalf("source=%v builds=%d corrupt events=%d, want one rebuild after one corrupt event", r.Source, builds, corrupt)
	}
	params := algorithms.Params{Source: 0}
	want, err := algorithms.RunReference(ringGraph(t, n), algorithms.BFS, params)
	if err != nil {
		t.Fatal(err)
	}
	validate := func(g *graph.Graph) {
		t.Helper()
		got, err := algorithms.RunReference(g, algorithms.BFS, params)
		if err != nil {
			t.Fatal(err)
		}
		if rep := validation.Validate(got, want, g.IDs()); !rep.OK {
			t.Fatalf("BFS output mismatch: %v", rep.Error())
		}
	}
	validate(r.Graph)

	// The rewritten snapshot verifies and is served mapped next time.
	if !s.Evict("k@g1") {
		t.Fatal("Evict must drop the resident entry")
	}
	r2, err := s.Get("k@g1", build)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Source != graphstore.SourceSnapshot || !r2.Graph.Mapped() || builds != 1 {
		t.Fatalf("source=%v mapped=%v builds=%d, want the rewritten snapshot mapped", r2.Source, r2.Graph.Mapped(), builds)
	}
	validate(r2.Graph)
	r2.Graph.Close()
}

// Evicting a mapped entry releases the store's reference; the graph a
// caller still holds stays readable (refcount), and re-loading maps the
// snapshot again.
func TestMappedEvictReleasesButKeepsCallerSafe(t *testing.T) {
	dir := t.TempDir()
	s1 := graphstore.New(graphstore.Options{Dir: dir})
	if _, err := s1.Load("k@g1", func() (*graph.Graph, error) { return testGraph(t, 4), nil }); err != nil {
		t.Fatal(err)
	}

	var evicts int
	s := graphstore.New(graphstore.Options{Dir: dir, MapSnapshots: true, OnEvent: func(e graphstore.Event) {
		if e.Type == graphstore.EventEvict {
			evicts++
		}
	}})
	r, err := s.Get("k@g1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Evict("k@g1") {
		t.Fatal("Evict must drop the resident entry")
	}
	if s.MappedBytes() != 0 {
		t.Fatalf("MappedBytes = %d after evict, want 0", s.MappedBytes())
	}
	// The caller's handle still works: the mapping is refcounted.
	sum := int64(0)
	for v := int32(0); v < int32(r.Graph.NumVertices()); v++ {
		sum += r.Graph.VertexID(v) + int64(len(r.Graph.OutNeighbors(v)))
	}
	if sum == 0 {
		t.Fatal("mapped graph unreadable after evict")
	}
	r2, err := s.Get("k@g1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Graph.Mapped() || r2.Source != graphstore.SourceSnapshot {
		t.Fatal("re-load after evict must map the snapshot again")
	}
	r.Graph.Close()
	r2.Graph.Close()
}

// The mapped budget evicts mapped entries independently of the heap
// budget.
func TestMappedBudgetEvicts(t *testing.T) {
	dir := t.TempDir()
	warm := graphstore.New(graphstore.Options{Dir: dir})
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d@g1", i)
		seed := i
		if _, err := warm.Load(key, func() (*graph.Graph, error) { return testGraph(t, seed), nil }); err != nil {
			t.Fatal(err)
		}
	}
	one, err := graph.ReadSnapshotFile(warm.SnapshotPath("k0@g1"))
	if err != nil {
		t.Fatal(err)
	}
	// Budget below two mappings: the LRU holds at most one mapped graph
	// (plus the soft-by-one entry being returned).
	s := graphstore.New(graphstore.Options{
		Dir:          dir,
		MapSnapshots: true,
		MappedBudget: one.SizeBytes() + 1,
	})
	for i := 0; i < 3; i++ {
		if _, err := s.Get(fmt.Sprintf("k%d@g1", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Len(); n > 2 {
		t.Fatalf("resident entries = %d, want <= 2 under mapped budget", n)
	}
}

func TestGetStreamed(t *testing.T) {
	dir := t.TempDir()
	var builds int
	buildTo := func(path string) error {
		builds++
		b := graph.NewBuilder(false, true)
		b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
		b.SetSpill(graph.SpillOptions{BudgetBytes: 1 << 12})
		for i := 0; i < 500; i++ {
			b.AddWeightedEdge(int64(i%40), int64((i*7+1)%40), float64(i))
		}
		return b.BuildTo(path)
	}

	s := graphstore.New(graphstore.Options{Dir: dir, MapSnapshots: true})
	r, err := s.GetStreamed("xl@g1", buildTo)
	if err != nil {
		t.Fatal(err)
	}
	if r.Source != graphstore.SourceBuilt || builds != 1 {
		t.Fatalf("source=%v builds=%d, want cold streamed build", r.Source, builds)
	}
	if !r.Graph.Mapped() {
		t.Fatal("streamed build must be served from the mapped snapshot")
	}
	// Second store over the same dir: pure snapshot hit, no rebuild.
	s2 := graphstore.New(graphstore.Options{Dir: dir, MapSnapshots: true})
	r2, err := s2.GetStreamed("xl@g1", func(string) error {
		t.Fatal("warm snapshot must not stream-build")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Source != graphstore.SourceSnapshot {
		t.Fatalf("source = %v, want snapshot", r2.Source)
	}
	if r2.Graph.NumEdges() != r.Graph.NumEdges() || r2.Graph.NumVertices() != r.Graph.NumVertices() {
		t.Fatal("streamed graph mismatch across stores")
	}
}

func TestGetStreamedRequiresDir(t *testing.T) {
	s := graphstore.New(graphstore.Options{})
	if _, err := s.GetStreamed("xl@g1", func(string) error { return nil }); err == nil {
		t.Fatal("GetStreamed without a snapshot dir must fail")
	}
}
