// Package conformance provides the cross-platform equivalence test used by
// every engine's test suite: each platform must produce output equivalent
// to the reference implementation for every algorithm it supports, over a
// corpus of small graphs covering directed/undirected, weighted,
// disconnected, degenerate and randomized shapes, under several
// thread/machine configurations. This is the benchmark's own validation
// rule (Section 2.2.3) applied as an integration test.
package conformance

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/platform"
	"graphalytics/internal/validation"
)

// Case is one corpus graph with its algorithm parameters.
type Case struct {
	Name   string
	Graph  *graph.Graph
	Params algorithms.Params
}

// mustGraph builds a corpus graph or panics (corpus construction cannot
// fail at test time).
func mustGraph(name string, directed, weighted bool, vertices []int64, edges []graph.Edge) *graph.Graph {
	b := graph.NewBuilder(directed, weighted)
	b.SetName(name)
	for _, v := range vertices {
		b.AddVertex(v)
	}
	for _, e := range edges {
		b.AddWeightedEdge(e.Src, e.Dst, e.Weight)
	}
	g, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("conformance: build %s: %v", name, err))
	}
	return g
}

// lcg is a tiny deterministic pseudo-random generator for corpus graphs.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 16)
}

func (r *lcg) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *lcg) float() float64 { return float64(r.next()%1000000)/1000000.0 + 0.001 }

// randomGraph builds a deterministic Erdos-Renyi-style graph.
func randomGraph(name string, n, edges int, directed bool, seed uint64) *graph.Graph {
	r := lcg(seed)
	b := graph.NewBuilder(directed, true)
	b.SetName(name)
	b.SetOptions(graph.BuildOptions{DedupEdges: true, DropSelfLoops: true})
	for v := 0; v < n; v++ {
		b.AddVertex(int64(v * 3)) // non-contiguous external ids
	}
	for i := 0; i < edges; i++ {
		s := int64(r.intn(n) * 3)
		d := int64(r.intn(n) * 3)
		b.AddWeightedEdge(s, d, r.float())
	}
	g, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("conformance: build %s: %v", name, err))
	}
	return g
}

// Corpus returns the conformance graphs. All are weighted so SSSP runs
// everywhere.
func Corpus() []Case {
	var cases []Case

	// Small directed graph with a cycle, a dangling vertex and an
	// unreachable vertex.
	cases = append(cases, Case{
		Name: "directed-small",
		Graph: mustGraph("directed-small", true, true,
			[]int64{10, 20, 30, 40, 50, 60, 70},
			[]graph.Edge{
				{Src: 10, Dst: 20, Weight: 1},
				{Src: 20, Dst: 30, Weight: 2.5},
				{Src: 30, Dst: 10, Weight: 0.5},
				{Src: 20, Dst: 40, Weight: 1.5},
				{Src: 40, Dst: 50, Weight: 3},
				{Src: 50, Dst: 40, Weight: 0.25},
				{Src: 10, Dst: 50, Weight: 10},
				{Src: 60, Dst: 10, Weight: 1}, // 60 unreachable from 10
			}),
		Params: algorithms.Params{Source: 10, Iterations: 10},
	})

	// Undirected triangle-rich graph (clique plus tail) for LCC/CDLP.
	cases = append(cases, Case{
		Name: "undirected-clique-tail",
		Graph: mustGraph("undirected-clique-tail", false, true,
			[]int64{1, 2, 3, 4, 5, 6, 7, 8},
			[]graph.Edge{
				{Src: 1, Dst: 2, Weight: 1}, {Src: 1, Dst: 3, Weight: 1},
				{Src: 1, Dst: 4, Weight: 1}, {Src: 2, Dst: 3, Weight: 1},
				{Src: 2, Dst: 4, Weight: 1}, {Src: 3, Dst: 4, Weight: 1},
				{Src: 4, Dst: 5, Weight: 2}, {Src: 5, Dst: 6, Weight: 2},
				{Src: 6, Dst: 7, Weight: 2}, {Src: 7, Dst: 8, Weight: 2},
			}),
		Params: algorithms.Params{Source: 1, Iterations: 8},
	})

	// Disconnected graph: two components and two isolated vertices.
	cases = append(cases, Case{
		Name: "disconnected",
		Graph: mustGraph("disconnected", false, true,
			[]int64{0, 1, 2, 3, 4, 5, 6, 7, 100, 200},
			[]graph.Edge{
				{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1},
				{Src: 2, Dst: 0, Weight: 1},
				{Src: 3, Dst: 4, Weight: 2}, {Src: 4, Dst: 5, Weight: 2},
				{Src: 5, Dst: 6, Weight: 2}, {Src: 6, Dst: 7, Weight: 2},
			}),
		Params: algorithms.Params{Source: 0, Iterations: 6},
	})

	// Single vertex, no edges.
	cases = append(cases, Case{
		Name:   "single-vertex",
		Graph:  mustGraph("single-vertex", true, true, []int64{42}, nil),
		Params: algorithms.Params{Source: 42, Iterations: 3},
	})

	// Directed star: hub fan-out with skewed degrees.
	starEdges := make([]graph.Edge, 0, 12)
	starVerts := []int64{500}
	for i := int64(1); i <= 12; i++ {
		starVerts = append(starVerts, 500+i)
		starEdges = append(starEdges, graph.Edge{Src: 500, Dst: 500 + i, Weight: float64(i)})
	}
	cases = append(cases, Case{
		Name:   "directed-star",
		Graph:  mustGraph("directed-star", true, true, starVerts, starEdges),
		Params: algorithms.Params{Source: 500, Iterations: 5},
	})

	// Undirected grid (road-network-like, high diameter).
	const side = 8
	var gridVerts []int64
	var gridEdges []graph.Edge
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			id := int64(y*side + x)
			gridVerts = append(gridVerts, id)
			if x+1 < side {
				gridEdges = append(gridEdges, graph.Edge{Src: id, Dst: id + 1, Weight: 1 + float64((x+y)%3)})
			}
			if y+1 < side {
				gridEdges = append(gridEdges, graph.Edge{Src: id, Dst: id + side, Weight: 1 + float64((x*y)%5)})
			}
		}
	}
	cases = append(cases, Case{
		Name:   "undirected-grid",
		Graph:  mustGraph("undirected-grid", false, true, gridVerts, gridEdges),
		Params: algorithms.Params{Source: 0, Iterations: 10},
	})

	// Deterministic random graphs.
	cases = append(cases, Case{
		Name:   "random-directed",
		Graph:  randomGraph("random-directed", 180, 900, true, 12345),
		Params: algorithms.Params{Source: 0, Iterations: 10},
	})
	cases = append(cases, Case{
		Name:   "random-undirected",
		Graph:  randomGraph("random-undirected", 150, 600, false, 99999),
		Params: algorithms.Params{Source: 0, Iterations: 10},
	})

	return cases
}

// Config is one resource configuration to exercise.
type Config struct {
	Threads  int
	Machines int
}

// Configs returns the resource configurations to test: single-threaded,
// multi-threaded, and (for distributed platforms) multi-machine.
func Configs(p platform.Platform) []Config {
	cfgs := []Config{{Threads: 1, Machines: 1}, {Threads: 4, Machines: 1}}
	if p.Distributed() {
		cfgs = append(cfgs, Config{Threads: 2, Machines: 3})
	}
	return cfgs
}

// Run exercises a platform against the full corpus: for every supported
// algorithm, every corpus graph and every configuration, the platform's
// output must validate against the reference output.
func Run(t *testing.T, p platform.Platform) {
	t.Helper()
	for _, c := range Corpus() {
		for _, cfg := range Configs(p) {
			rc := platform.RunConfig{Threads: cfg.Threads, Machines: cfg.Machines}
			up, err := p.Upload(t.Context(), c.Graph, rc)
			if err != nil {
				t.Fatalf("%s: upload %s (t=%d,m=%d): %v", p.Name(), c.Name, cfg.Threads, cfg.Machines, err)
			}
			for _, a := range algorithms.All {
				if !p.Supports(a) {
					continue
				}
				name := fmt.Sprintf("%s/%s/t%d-m%d", c.Name, a, cfg.Threads, cfg.Machines)
				t.Run(name, func(t *testing.T) {
					want, err := algorithms.RunReference(c.Graph, a, c.Params)
					if err != nil {
						t.Fatalf("reference: %v", err)
					}
					ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
					defer cancel()
					res, err := p.Execute(ctx, up, a, c.Params)
					if err != nil {
						t.Fatalf("execute: %v", err)
					}
					if rep := validation.Validate(res.Output, want, c.Graph.IDs()); !rep.OK {
						t.Fatalf("output mismatch: %v", rep.Error())
					}
					if res.ProcessingTime < 0 {
						t.Errorf("negative processing time %v", res.ProcessingTime)
					}
					if res.Archive == nil {
						t.Errorf("missing Granula archive")
					}
				})
			}
			up.Free()
		}
	}
}

// RunCancellation verifies the SLA mechanism end to end: an already-
// cancelled context must abort every supported algorithm with an error
// instead of returning output (the harness classifies that error as an
// SLA break).
func RunCancellation(t *testing.T, p platform.Platform) {
	t.Helper()
	c := Corpus()[6] // random-directed: enough work that every engine loops
	rc := platform.RunConfig{Threads: 2, Machines: 1}
	up, err := p.Upload(t.Context(), c.Graph, rc)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	defer up.Free()
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	for _, a := range algorithms.All {
		if !p.Supports(a) {
			continue
		}
		if _, err := p.Execute(ctx, up, a, c.Params); err == nil {
			t.Errorf("%s: cancelled context did not abort %s", p.Name(), a)
		}
	}
}

// RunDeterminism executes one algorithm twice under the same configuration
// and requires identical outputs.
func RunDeterminism(t *testing.T, p platform.Platform, a algorithms.Algorithm) {
	t.Helper()
	if !p.Supports(a) {
		t.Skipf("%s does not support %s", p.Name(), a)
	}
	c := Corpus()[6] // random-directed
	rc := platform.RunConfig{Threads: 4, Machines: 1}
	up, err := p.Upload(t.Context(), c.Graph, rc)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	defer up.Free()
	run := func() *algorithms.Output {
		ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
		defer cancel()
		res, err := p.Execute(ctx, up, a, c.Params)
		if err != nil {
			t.Fatalf("execute: %v", err)
		}
		return res.Output
	}
	first, second := run(), run()
	if first.IsFloat() {
		for i := range first.Float {
			if first.Float[i] != second.Float[i] {
				t.Fatalf("nondeterministic output at %d: %g vs %g", i, first.Float[i], second.Float[i])
			}
		}
	} else {
		for i := range first.Int {
			if first.Int[i] != second.Int[i] {
				t.Fatalf("nondeterministic output at %d: %d vs %d", i, first.Int[i], second.Int[i])
			}
		}
	}
}

// RunStateOOM verifies the Execute-time out-of-memory path. For every
// supported algorithm it uploads under two per-machine budgets, each too
// small for the busiest machine to also register the algorithm's working
// state, and requires Execute to fail with an error wrapping
// cluster.ErrOutOfMemory:
//
//   - the upload's own peak, where no machine has room left;
//   - one byte short of the upload's peak plus the state, where every
//     machine but the busiest registers its state before the busiest
//     fails.
//
// Once the upload is freed, every machine must be able to register the
// full budget again: a state registration that failed part-way must have
// released the machines it had already claimed.
func RunStateOOM(t *testing.T, p platform.Platform) {
	t.Helper()
	c := Corpus()[6] // random-directed
	upload := func(budget int64) platform.Uploaded {
		rc := platform.RunConfig{Threads: 2, Machines: 1, MemoryPerMachine: budget}
		if p.Distributed() {
			rc.Machines = 3
		}
		up, err := p.Upload(t.Context(), c.Graph, rc)
		if err != nil {
			t.Fatalf("%s: upload with budget %d: %v", p.Name(), budget, err)
		}
		return up
	}
	for _, a := range algorithms.All {
		if !p.Supports(a) {
			continue
		}
		probe := upload(0)
		uploadPeak := probe.Cluster().PeakMemory()
		res, err := p.Execute(t.Context(), probe, a, c.Params)
		probe.Free()
		if err != nil {
			t.Fatalf("%s/%s: unbounded execute: %v", p.Name(), a, err)
		}
		state := res.PeakMemory - uploadPeak
		for _, budget := range []int64{uploadPeak, uploadPeak + state - 1} {
			up := upload(budget)
			if _, err := p.Execute(t.Context(), up, a, c.Params); !errors.Is(err, cluster.ErrOutOfMemory) {
				t.Errorf("%s/%s: execute with budget %d: got %v, want ErrOutOfMemory", p.Name(), a, budget, err)
			}
			cl := up.Cluster()
			up.Free()
			for m := 0; m < cl.Machines(); m++ {
				if err := cl.Alloc(m, budget); err != nil {
					t.Errorf("%s/%s: machine %d still holds memory after Free: %v", p.Name(), a, m, err)
					continue
				}
				cl.Free(m, budget)
			}
		}
	}
}
