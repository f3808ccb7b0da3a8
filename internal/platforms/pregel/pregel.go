// Package pregel implements an iterative vertex-centric BSP engine in the
// style of Google's Pregel, standing in for Apache Giraph in the paper's
// evaluation. Algorithms are vertex programs: in each superstep every
// active vertex consumes the messages sent to it in the previous
// superstep, updates its value, sends messages along its edges and may
// vote to halt; a vertex is reactivated by incoming messages. Supersteps
// are separated by global barriers.
//
// The engine is deliberately faithful to the model's cost profile:
// messages are materialized per destination vertex, adjacency is stored as
// one object per vertex, and cross-machine messages are serialized sizes
// accounted against the interconnect. This is why — like Giraph in the
// paper — the engine is orders of magnitude slower than the hand-tuned and
// matrix engines while still scaling out.
package pregel

import (
	"context"
	"fmt"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/graph"
	"graphalytics/internal/mplane"
	"graphalytics/internal/platform"
)

// Engine is the vertex-centric BSP platform driver.
type Engine struct {
	useCombiners bool
}

// New returns the engine with message combiners enabled.
func New() *Engine { return &Engine{useCombiners: true} }

// NewWithOptions returns an engine with explicit combiner configuration;
// disabling combiners exists for the combiner ablation benchmark.
func NewWithOptions(useCombiners bool) *Engine { return &Engine{useCombiners: useCombiners} }

// Name implements platform.Platform.
func (e *Engine) Name() string { return "pregel" }

// Description implements platform.Platform.
func (e *Engine) Description() string {
	return "vertex-centric BSP with message passing (Giraph/Pregel-style)"
}

// Distributed implements platform.Platform.
func (e *Engine) Distributed() bool { return true }

// Supports implements platform.Platform; all six algorithms are
// implemented as vertex programs.
func (e *Engine) Supports(a algorithms.Algorithm) bool {
	switch a {
	case algorithms.BFS, algorithms.PR, algorithms.WCC, algorithms.CDLP, algorithms.LCC, algorithms.SSSP:
		return true
	}
	return false
}

// vertexData is the per-vertex adjacency object; the engine pays one object
// per vertex like JVM-based vertex-centric systems do.
type vertexData struct {
	out []int32   // out-neighbors (all neighbors for undirected graphs)
	w   []float64 // out-edge weights, nil when unweighted
	in  []int32   // in-neighbors, nil for undirected graphs
}

type uploaded struct {
	platform.BaseUpload
	part  *cluster.VertexPartition
	verts []vertexData
	// scratch caches the BSP runner (message plane, frontier lists, halt
	// bitmap) between Execute calls, so repeated jobs on one upload run
	// allocation-free in steady state.
	scratch mplane.Pool
}

func (u *uploaded) Free() {
	u.BaseUpload.Free()
	u.verts = nil
}

// Upload implements platform.Platform: the graph is exploded into
// per-vertex adjacency objects hash-partitioned over the machines. The
// context is checked periodically inside the per-vertex explosion loop,
// the bulk of the upload work.
func (e *Engine) Upload(ctx context.Context, g *graph.Graph, cfg platform.RunConfig) (platform.Uploaded, error) {
	if err := platform.CheckContext(ctx); err != nil {
		return nil, err
	}
	cl := cluster.New(cfg.ClusterConfig())
	n := g.NumVertices()
	part := cluster.PartitionVerticesHash(n, cl.Machines())
	verts := make([]vertexData, n)
	perMachine := make([]int64, cl.Machines())
	const vertexOverhead = 88 // object header + three slice headers + value slot
	for v := int32(0); v < int32(n); v++ {
		if v&0xffff == 0 {
			if err := platform.CheckContext(ctx); err != nil {
				return nil, err
			}
		}
		vd := vertexData{out: append([]int32(nil), g.OutNeighbors(v)...)}
		if g.Weighted() {
			vd.w = append([]float64(nil), g.OutWeights(v)...)
		}
		if g.Directed() {
			vd.in = append([]int32(nil), g.InNeighbors(v)...)
		}
		verts[v] = vd
		perMachine[part.Owner[v]] += vertexOverhead + int64(len(vd.out))*4 + int64(len(vd.in))*4 + int64(len(vd.w))*8
	}
	u := &uploaded{
		BaseUpload: platform.BaseUpload{G: g, Cl: cl},
		part:       part,
		verts:      verts,
	}
	if err := u.Register(perMachine); err != nil {
		return nil, fmt.Errorf("pregel: upload %s: %w", g.Name(), err)
	}
	return u, nil
}

// Execute implements platform.Platform.
func (e *Engine) Execute(ctx context.Context, up platform.Uploaded, a algorithms.Algorithm, p algorithms.Params) (*platform.Result, error) {
	return platform.Execute(ctx, e, up, a, p, platform.Hooks[*uploaded]{
		StateBytes: messageQueueBytes,
		Run:        e.run,
		Process: func(j *platform.Job[*uploaded]) {
			j.Annotate("supersteps", j.Upload.Cl.Rounds())
			j.Annotate("combiners", e.useCombiners)
		},
	})
}

// messageQueueBytes is one machine's share of the two per-vertex message
// buffers the engine keeps.
func messageQueueBytes(u *uploaded, _ algorithms.Algorithm) int64 {
	return int64(u.G.NumVertices()) * 2 * 24 / int64(u.Cl.Machines())
}

// run executes the algorithm's vertex program; the BSP runner records one
// Granula sub-phase per superstep.
func (e *Engine) run(ctx context.Context, j *platform.Job[*uploaded]) (*algorithms.Output, error) {
	t, u, p := j.Tracker, j.Upload, j.Params
	switch j.Algorithm {
	case algorithms.BFS:
		return j.Ints(bfsProgram(ctx, t, u, j.Source, e.useCombiners))
	case algorithms.PR:
		return j.Floats(prProgram(ctx, t, u, p.Iterations, p.Damping, e.useCombiners))
	case algorithms.WCC:
		return j.Ints(wccProgram(ctx, t, u, e.useCombiners))
	case algorithms.CDLP:
		return j.Ints(cdlpProgram(ctx, t, u, p.Iterations))
	case algorithms.LCC:
		return j.Floats(lccProgram(ctx, t, u))
	case algorithms.SSSP:
		return j.Floats(ssspProgram(ctx, t, u, j.Source, e.useCombiners))
	}
	return nil, fmt.Errorf("%w: %s", platform.ErrUnsupported, j.Algorithm)
}
