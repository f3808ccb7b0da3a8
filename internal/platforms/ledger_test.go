package platforms_test

import (
	"bytes"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/granula"
	"graphalytics/internal/platform"
	"graphalytics/internal/platforms"
	"graphalytics/internal/platforms/conformance"
)

// update rewrites the golden ledger instead of comparing against it:
//
//	go test ./internal/platforms -run TestDriverLedger -update
var update = flag.Bool("update", false, "rewrite testdata/ledger.golden")

// TestDriverLedger pins, for every driver × conformance graph × resource
// configuration × supported algorithm (on the default interconnect
// model), everything an Execute reports that does not depend on a
// stopwatch: the output CRC in the Graphalytics output format, the round
// count, the peak per-machine memory, the modeled network time and the
// shape of the Granula tree (phase names, nesting and Info attributes).
// A refactor of the driver layer must leave this ledger byte-identical.
func TestDriverLedger(t *testing.T) {
	platforms.RegisterAll()
	ctx := t.Context()
	var buf bytes.Buffer
	for _, p := range platform.All() {
		for _, c := range conformance.Corpus() {
			for _, cfg := range conformance.Configs(p) {
				rc := platform.RunConfig{Threads: cfg.Threads, Machines: cfg.Machines, Net: cluster.DefaultNetwork()}
				up, err := platform.UploadContext(ctx, p, c.Graph, rc)
				if err != nil {
					t.Fatalf("%s: upload %s: %v", p.Name(), c.Name, err)
				}
				for _, a := range algorithms.All {
					if !p.Supports(a) {
						continue
					}
					res, err := p.Execute(ctx, up, a, c.Params)
					if err != nil {
						t.Fatalf("%s/%s/%s: %v", p.Name(), c.Name, a, err)
					}
					h := crc32.NewIEEE()
					if err := algorithms.WriteOutput(h, c.Graph.IDs(), res.Output); err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&buf, "%s %s t%d-m%d %s crc=%08x rounds=%d peak=%d net=%d tree=%s\n",
						p.Name(), c.Name, cfg.Threads, cfg.Machines, a, h.Sum32(),
						res.Rounds, res.PeakMemory, int64(res.NetworkTime), treeSignature(res.Archive))
				}
				up.Free()
			}
		}
	}
	path := filepath.Join("testdata", "ledger.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), golden) {
		return
	}
	got, want := strings.Split(buf.String(), "\n"), strings.Split(string(golden), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("ledger differs from %s at row %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// treeSignature renders an archive without timings:
// job@platform{phase[k=v,...]{child...} ...}.
func treeSignature(a *granula.Archive) string {
	var b strings.Builder
	b.WriteString(a.Job + "@" + a.Platform)
	writeOp(&b, a.Root)
	return b.String()
}

func writeOp(b *strings.Builder, op *granula.Operation) {
	if len(op.Info) > 0 {
		keys := make([]string, 0, len(op.Info))
		for k := range op.Info {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b.WriteByte('[')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(k + "=" + op.Info[k])
		}
		b.WriteByte(']')
	}
	if len(op.Children) == 0 {
		return
	}
	b.WriteByte('{')
	for i, c := range op.Children {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(c.Name)
		writeOp(b, c)
	}
	b.WriteByte('}')
}
