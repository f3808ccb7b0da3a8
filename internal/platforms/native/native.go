// Package native implements the hand-optimized single-machine engine,
// standing in for OpenG/GraphBIG in the paper's evaluation. There is no
// programming-model abstraction: every algorithm is written directly
// against the CSR representation with explicit work queues and parallel
// loops, which is why this engine sets the single-machine performance
// baseline (and why its queue-based BFS wins on graphs where the search
// covers only part of the vertices).
package native

import (
	"context"
	"fmt"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/mplane"
	"graphalytics/internal/platform"
)

// Engine is the native platform driver.
type Engine struct{}

// New returns the native engine.
func New() *Engine { return &Engine{} }

// Name implements platform.Platform.
func (e *Engine) Name() string { return "native" }

// Description implements platform.Platform.
func (e *Engine) Description() string {
	return "hand-written CSR implementations, single machine (OpenG-style)"
}

// Distributed implements platform.Platform; the native engine is
// single-machine only.
func (e *Engine) Distributed() bool { return false }

// Supports implements platform.Platform; all six algorithms are
// implemented.
func (e *Engine) Supports(a algorithms.Algorithm) bool {
	switch a {
	case algorithms.BFS, algorithms.PR, algorithms.WCC, algorithms.CDLP, algorithms.LCC, algorithms.SSSP:
		return true
	}
	return false
}

type uploaded struct {
	platform.BaseUpload
	// scratch caches the kernels' per-job working buffers (delta-stepping
	// bucket state, CDLP frontier stamps and histogram) across Execute
	// calls on one upload, so steady-state runs allocate only their output
	// arrays.
	scratch mplane.Pool
}

// Upload implements platform.Platform. The native engine runs on the CSR
// directly, so upload is a single registration of the graph's memory
// against the machine budget, and the context is checked once up front.
func (e *Engine) Upload(ctx context.Context, g *graph.Graph, cfg platform.RunConfig) (platform.Uploaded, error) {
	if err := platform.CheckContext(ctx); err != nil {
		return nil, err
	}
	if cfg.Machines > 1 {
		return nil, fmt.Errorf("%w: native engine supports one machine", platform.ErrNotDistributed)
	}
	u := &uploaded{BaseUpload: platform.BaseUpload{G: g, Cl: cluster.New(cfg.ClusterConfig())}}
	if err := u.Register([]int64{g.MemoryFootprint()}); err != nil {
		return nil, fmt.Errorf("native: upload %s: %w", g.Name(), err)
	}
	return u, nil
}

// Execute implements platform.Platform.
func (e *Engine) Execute(ctx context.Context, up platform.Uploaded, a algorithms.Algorithm, p algorithms.Params) (*platform.Result, error) {
	return platform.Execute(ctx, e, up, a, p, platform.Hooks[*uploaded]{
		StateBytes: stateFootprint,
		Run:        run,
		Process:    func(j *platform.Job[*uploaded]) { j.Annotate("threads", j.Upload.Cl.Threads()) },
	})
}

// run dispatches to the algorithm kernels.
func run(ctx context.Context, j *platform.Job[*uploaded]) (*algorithms.Output, error) {
	u, p := j.Upload, j.Params
	switch j.Algorithm {
	case algorithms.BFS:
		return j.Ints(bfs(ctx, u.G, u.Cl, j.Source))
	case algorithms.PR:
		return j.Floats(pagerank(ctx, u.G, u.Cl, p.Iterations, p.Damping))
	case algorithms.WCC:
		return j.Ints(wcc(ctx, u.G, u.Cl))
	case algorithms.CDLP:
		return j.Ints(cdlp(ctx, u, p.Iterations))
	case algorithms.LCC:
		return j.Floats(lcc(ctx, u.G, u.Cl))
	case algorithms.SSSP:
		return j.Floats(sssp(ctx, u, j.Source))
	}
	return nil, fmt.Errorf("%w: %s", platform.ErrUnsupported, j.Algorithm)
}

// stateFootprint estimates the engine's per-run working memory: native
// kernels keep one or two flat arrays per vertex plus frontier queues.
func stateFootprint(u *uploaded, a algorithms.Algorithm) int64 {
	n := int64(u.G.NumVertices())
	switch a {
	case algorithms.BFS:
		return n * (8 + 2*4) // depth + two frontier queues
	case algorithms.PR:
		return n * 16 // two rank arrays
	case algorithms.WCC, algorithms.CDLP:
		return n * 16 // two label arrays
	case algorithms.LCC:
		return n * 12 // result + mark array
	case algorithms.SSSP:
		return n * (8 + 2*4) // distances + frontier queues
	}
	return n * 8
}
