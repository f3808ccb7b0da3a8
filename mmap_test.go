package graphalytics_test

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"testing"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/platforms/conformance"
)

// outputCRC fingerprints an algorithm output rendered in the
// Graphalytics output format: "CRC-identical" below means the written
// result files would be byte-identical.
func outputCRC(t *testing.T, ids []int64, out *algorithms.Output) uint32 {
	t.Helper()
	h := crc32.NewIEEE()
	if err := algorithms.WriteOutput(h, ids, out); err != nil {
		t.Fatal(err)
	}
	return h.Sum32()
}

// Every engine and every parallel reference kernel must produce
// CRC-identical output whether the graph's CSR arrays live on the heap
// or inside an mmap'd v2 snapshot. This is the guarantee that lets the
// harness flip residency (-mmap) without touching a single engine.
func TestEnginesCRCIdenticalOnMappedGraphs(t *testing.T) {
	dir := t.TempDir()
	for ci, c := range conformance.Corpus() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			path := filepath.Join(dir, fmt.Sprintf("c%d.snap", ci))
			if err := graph.WriteSnapshotFile(path, c.Graph); err != nil {
				t.Fatal(err)
			}
			mapped, err := graph.MapSnapshotFile(path)
			if errors.Is(err, graph.ErrMapUnsupported) {
				t.Skip("mmap unsupported on this platform")
			}
			if err != nil {
				t.Fatal(err)
			}
			defer mapped.Close()

			// Parallel reference kernels (ParBFS, ParSSSP, ...) on both
			// residencies.
			for _, a := range algorithms.All {
				if a == algorithms.SSSP && !c.Graph.Weighted() {
					continue
				}
				want, err := algorithms.RunReference(c.Graph, a, c.Params)
				if err != nil {
					t.Fatalf("reference %s (heap): %v", a, err)
				}
				got, err := algorithms.RunReference(mapped, a, c.Params)
				if err != nil {
					t.Fatalf("reference %s (mapped): %v", a, err)
				}
				if outputCRC(t, mapped.IDs(), got) != outputCRC(t, c.Graph.IDs(), want) {
					t.Fatalf("reference %s: mapped output differs from heap output", a)
				}
			}

			// All six engines on both residencies.
			for _, name := range platform.Names() {
				p, err := platform.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				rc := platform.RunConfig{Threads: 2, Machines: 1}
				if p.Distributed() {
					rc.Machines = 2
				}
				upHeap, err := p.Upload(t.Context(), c.Graph, rc)
				if err != nil {
					t.Fatalf("%s: upload heap: %v", name, err)
				}
				upMap, err := p.Upload(t.Context(), mapped, rc)
				if err != nil {
					t.Fatalf("%s: upload mapped: %v", name, err)
				}
				for _, a := range algorithms.All {
					if !p.Supports(a) || (a == algorithms.SSSP && !c.Graph.Weighted()) {
						continue
					}
					ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
					want, err := p.Execute(ctx, upHeap, a, c.Params)
					if err != nil {
						cancel()
						t.Fatalf("%s/%s: execute heap: %v", name, a, err)
					}
					got, err := p.Execute(ctx, upMap, a, c.Params)
					cancel()
					if err != nil {
						t.Fatalf("%s/%s: execute mapped: %v", name, a, err)
					}
					if outputCRC(t, mapped.IDs(), got.Output) != outputCRC(t, c.Graph.IDs(), want.Output) {
						t.Fatalf("%s/%s: mapped output differs from heap output", name, a)
					}
				}
				upMap.Free()
				upHeap.Free()
			}
		})
	}
}
