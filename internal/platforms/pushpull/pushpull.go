// Package pushpull implements a direction-switching iteration engine in
// the style of Oracle PGX.D, which lets vertices "pull" (read) data from
// neighbors in addition to the conventional "push" (write) direction.
// Every iteration the engine picks push or pull from the frontier density:
// sparse frontiers push along out-edges, dense frontiers switch to a pull
// scan over in-edges, avoiding contended writes.
//
// Mirroring the paper's PGX.D: the engine is distributed, tuned for
// machines with large memory (it keeps both adjacency directions plus wide
// per-vertex state and ghost caches on every machine, and is therefore the
// first to hit memory limits in the stress test), and it does not
// implement LCC.
package pushpull

import (
	"context"
	"fmt"
	"slices"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/mplane"
	"graphalytics/internal/platform"
)

// Engine is the push-pull platform driver.
type Engine struct {
	// forceDirection pins the engine to "push" or "pull" for the direction
	// ablation benchmark; empty selects adaptively.
	forceDirection string
}

// New returns the adaptive push-pull engine.
func New() *Engine { return &Engine{} }

// NewForced returns an engine pinned to one direction ("push" or "pull"),
// used by the direction ablation benchmark.
func NewForced(direction string) *Engine { return &Engine{forceDirection: direction} }

// Name implements platform.Platform.
func (e *Engine) Name() string { return "pushpull" }

// Description implements platform.Platform.
func (e *Engine) Description() string {
	return "adaptive push-pull iteration engine (PGX.D-style)"
}

// Distributed implements platform.Platform.
func (e *Engine) Distributed() bool { return true }

// Supports implements platform.Platform; LCC is not implemented, matching
// PGX.D in the paper.
func (e *Engine) Supports(a algorithms.Algorithm) bool {
	switch a {
	case algorithms.BFS, algorithms.PR, algorithms.WCC, algorithms.CDLP, algorithms.SSSP:
		return true
	}
	return false
}

// store is the engine's own graph storage: both adjacency directions are
// replicated into engine-private arrays during upload.
type store struct {
	n        int
	directed bool
	outOff   []int64
	outAdj   []int32
	outW     []float64
	inOff    []int64
	inAdj    []int32
}

// The adjacency accessors sit on every push and pull scan's per-edge
// path; they return views into the CSR arrays, never copies.
//
//graphalint:noalloc
func (s *store) out(v int32) []int32 { return s.outAdj[s.outOff[v]:s.outOff[v+1]] }

//graphalint:noalloc
func (s *store) in(v int32) []int32 { return s.inAdj[s.inOff[v]:s.inOff[v+1]] }

//graphalint:noalloc
func (s *store) outWeights(v int32) []float64 {
	if s.outW == nil {
		return nil
	}
	return s.outW[s.outOff[v]:s.outOff[v+1]]
}

//graphalint:noalloc
func (s *store) outDegree(v int32) int { return int(s.outOff[v+1] - s.outOff[v]) }

type uploaded struct {
	platform.BaseUpload
	st            *store
	part          *cluster.VertexPartition
	danglingVerts []int32
	// scratch caches the CDLP/SSSP working buffers between Execute calls.
	scratch mplane.Pool
}

func (u *uploaded) Free() {
	u.BaseUpload.Free()
	u.st = nil
}

// Upload implements platform.Platform: both adjacency directions are
// copied into engine storage and charged, together with the wide
// per-vertex slots and ghost caches, against every machine. The context
// is checked between the two adjacency-direction copies and before the
// dangling-vertex scan.
func (e *Engine) Upload(ctx context.Context, g *graph.Graph, cfg platform.RunConfig) (platform.Uploaded, error) {
	if err := platform.CheckContext(ctx); err != nil {
		return nil, err
	}
	cl := cluster.New(cfg.ClusterConfig())
	st := &store{n: g.NumVertices(), directed: g.Directed()}
	st.outOff, st.outAdj, st.outW = g.CopyCSR(false)
	if err := platform.CheckContext(ctx); err != nil {
		return nil, err
	}
	st.inOff, st.inAdj, _ = g.CopyCSR(true)
	if err := platform.CheckContext(ctx); err != nil {
		return nil, err
	}
	part := cluster.PartitionVerticesRange(g, cl.Machines())
	var dangling []int32
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if st.outDegree(v) == 0 {
			dangling = append(dangling, v)
		}
	}
	u := &uploaded{
		BaseUpload:    platform.BaseUpload{G: g, Cl: cl},
		st:            st,
		part:          part,
		danglingVerts: dangling,
	}
	edgeBytes := int64(len(st.outAdj))*4 + int64(len(st.inAdj))*4 + int64(len(st.outW))*8 +
		int64(len(st.outOff))*8 + int64(len(st.inOff))*8
	n := int64(g.NumVertices())
	// Edge share per machine, plus replicated ghost-value cache and the
	// engine's wide per-vertex context slots (64 B) on every machine.
	perMachine := edgeBytes/int64(cl.Machines()) + n*8 + n*64
	if err := u.Register(slices.Repeat([]int64{perMachine}, cl.Machines())); err != nil {
		return nil, fmt.Errorf("pushpull: upload %s: %w", g.Name(), err)
	}
	return u, nil
}

// Execute implements platform.Platform.
func (e *Engine) Execute(ctx context.Context, up platform.Uploaded, a algorithms.Algorithm, p algorithms.Params) (*platform.Result, error) {
	return platform.Execute(ctx, e, up, a, p, platform.Hooks[*uploaded]{
		StateBytes: func(u *uploaded, _ algorithms.Algorithm) int64 { return int64(u.G.NumVertices()) * 16 },
		Run:        e.run,
		Process:    func(j *platform.Job[*uploaded]) { j.Annotate("rounds", j.Upload.Cl.Rounds()) },
	})
}

// run executes the algorithm and annotates ProcessGraph with how many of
// its rounds pushed and how many pulled.
func (e *Engine) run(ctx context.Context, j *platform.Job[*uploaded]) (*algorithms.Output, error) {
	u, p := j.Upload, j.Params
	directions := func(pushes, pulls int) {
		j.Annotate("push_rounds", pushes)
		j.Annotate("pull_rounds", pulls)
	}
	switch j.Algorithm {
	case algorithms.BFS:
		vals, pushes, pulls, err := bfs(ctx, u, j.Source, e.forceDirection)
		directions(pushes, pulls)
		return j.Ints(vals, err)
	case algorithms.PR:
		directions(0, p.Iterations)
		return j.Floats(pagerank(ctx, u, p.Iterations, p.Damping))
	case algorithms.WCC:
		vals, rounds, err := wcc(ctx, u)
		directions(0, rounds)
		return j.Ints(vals, err)
	case algorithms.CDLP:
		directions(0, p.Iterations)
		return j.Ints(cdlp(ctx, u, p.Iterations))
	case algorithms.SSSP:
		vals, rounds, err := sssp(ctx, u, j.Source)
		directions(rounds, 0)
		return j.Floats(vals, err)
	}
	return nil, fmt.Errorf("%w: %s", platform.ErrUnsupported, j.Algorithm)
}
