// Package spmv implements a sparse-matrix graph-analysis engine, standing
// in for Intel GraphMat in the paper's evaluation. Pregel-like vertex
// programs are mapped onto generalized sparse matrix-vector products: the
// graph is stored as a sparse matrix in both CSR (rows = edge sources) and
// CSC (columns = edge destinations) layouts, per-vertex state lives in
// dense or sparse vectors, and every algorithm iteration is one or two
// (masked, semiring-generalized) SpMV passes.
//
// Like GraphMat, the engine has two backends that must be selected
// manually: a single-machine shared-memory backend (S) and a distributed
// backend (D) with 1-D row partitioning and an allgather of the operand
// vector per iteration. SSSP is only available on the D backend, mirroring
// the paper's setup.
package spmv

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

// Backend selects the GraphMat-style execution backend.
type Backend string

// The two backends. The benchmark harness picks S for single-machine
// experiments and D for distributed ones, as the paper does.
const (
	BackendS Backend = "S" // single-machine shared memory
	BackendD Backend = "D" // distributed, 1-D row-partitioned
)

// Engine is the sparse-matrix platform driver.
type Engine struct {
	backend Backend
}

// New returns an engine with the given backend.
func New(b Backend) *Engine { return &Engine{backend: b} }

// Name implements platform.Platform.
func (e *Engine) Name() string {
	if e.backend == BackendD {
		return "spmv-d"
	}
	return "spmv-s"
}

// Description implements platform.Platform.
func (e *Engine) Description() string {
	if e.backend == BackendD {
		return "sparse matrix backend, distributed 1-D partitioning (GraphMat(D)-style)"
	}
	return "sparse matrix backend, shared memory (GraphMat(S)-style)"
}

// Distributed implements platform.Platform.
func (e *Engine) Distributed() bool { return e.backend == BackendD }

// Supports implements platform.Platform. The shared-memory backend has no
// SSSP (the paper uses the D backend for SSSP for this reason).
func (e *Engine) Supports(a algorithms.Algorithm) bool {
	if a == algorithms.SSSP {
		return e.backend == BackendD
	}
	switch a {
	case algorithms.BFS, algorithms.PR, algorithms.WCC, algorithms.CDLP, algorithms.LCC:
		return true
	}
	return false
}

type uploaded struct {
	platform.BaseUpload
	m    *matrix
	part *cluster.VertexPartition
	// scratch caches the CDLP/SSSP working buffers between Execute calls.
	scratch mplane.Pool
}

// Upload implements platform.Platform: it converts the graph into the
// engine's CSR+CSC matrix layout and registers the per-machine memory
// shares. The context is checked around the matrix conversion, the
// expensive part of the upload.
func (e *Engine) Upload(ctx context.Context, g *graph.Graph, cfg platform.RunConfig) (platform.Uploaded, error) {
	if err := platform.CheckContext(ctx); err != nil {
		return nil, err
	}
	if e.backend == BackendS && cfg.Machines > 1 {
		return nil, fmt.Errorf("%w: spmv backend S runs on one machine", platform.ErrNotDistributed)
	}
	cl := cluster.New(cfg.ClusterConfig())
	part := cluster.PartitionVerticesRange(g, cl.Machines())
	m := newMatrix(g)
	if err := platform.CheckContext(ctx); err != nil {
		return nil, err
	}
	u := &uploaded{
		BaseUpload: platform.BaseUpload{G: g, Cl: cl},
		m:          m,
		part:       part,
	}
	// Each machine holds its share of matrix rows/columns plus a full
	// replica of one dense operand vector (the allgathered x).
	total := m.footprint()
	perMachine := total/int64(cl.Machines()) + int64(g.NumVertices())*8
	if err := u.Register(slices.Repeat([]int64{perMachine}, cl.Machines())); err != nil {
		return nil, fmt.Errorf("spmv: upload %s: %w", g.Name(), err)
	}
	return u, nil
}

// Execute implements platform.Platform.
func (e *Engine) Execute(ctx context.Context, up platform.Uploaded, a algorithms.Algorithm, p algorithms.Params) (*platform.Result, error) {
	return platform.Execute(ctx, e, up, a, p, platform.Hooks[*uploaded]{
		StateBytes: stateFootprint,
		Run:        run,
		Process:    func(j *platform.Job[*uploaded]) { j.Annotate("rounds", j.Upload.Cl.Rounds()) },
	})
}

func run(ctx context.Context, j *platform.Job[*uploaded]) (*algorithms.Output, error) {
	u, p := j.Upload, j.Params
	switch j.Algorithm {
	case algorithms.BFS:
		return j.Ints(bfs(ctx, u, j.Source))
	case algorithms.PR:
		return j.Floats(pagerank(ctx, u, p.Iterations, p.Damping))
	case algorithms.WCC:
		return j.Ints(wcc(ctx, u))
	case algorithms.CDLP:
		return j.Ints(cdlp(ctx, u, p.Iterations))
	case algorithms.LCC:
		return j.Floats(lcc(ctx, u))
	case algorithms.SSSP:
		return j.Floats(sssp(ctx, u, j.Source))
	}
	return nil, fmt.Errorf("%w: %s", platform.ErrUnsupported, j.Algorithm)
}

// stateFootprint estimates the dense vectors the engine allocates per run;
// every machine replicates the operand vectors.
func stateFootprint(u *uploaded, a algorithms.Algorithm) int64 {
	n := int64(u.G.NumVertices())
	switch a {
	case algorithms.PR:
		return n * 24 // rank, next, contrib
	case algorithms.BFS, algorithms.SSSP:
		return n * 16 // value vector + frontier flags
	case algorithms.WCC, algorithms.CDLP:
		return n * 16 // two label vectors
	case algorithms.LCC:
		return n * 8
	}
	return n * 8
}
