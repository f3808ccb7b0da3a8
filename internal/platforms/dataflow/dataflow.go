// Package dataflow implements a dataflow (RDD-style) graph engine in the
// style of Apache Spark GraphX, standing in for GraphX in the paper's
// evaluation. The graph is a pair of partitioned immutable datasets — a
// vertex dataset hash-partitioned by vertex id and an edge dataset cut
// into edge partitions — and every algorithm iteration is expressed as
// dataset operations:
//
//	ship:    vertex attributes are shuffled to the edge partitions that
//	         reference them (via routing tables built at load time);
//	send:    each edge partition scans its triplets and emits messages;
//	reduce:  messages are shuffled to vertex partitions and merged by key
//	         into fresh hash maps;
//	join:    the merged messages are joined with the vertex dataset to
//	         produce the next vertex values.
//
// Faithful to the model, every stage materializes its output and rebuilds
// hash maps each iteration; full edge partitions are rescanned even when
// only a few sources are active. This generality tax is why the paper
// finds GraphX one to two orders of magnitude slower than the fastest
// platforms, and the engine reproduces it structurally.
package dataflow

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

// Engine is the dataflow platform driver.
type Engine struct{}

// New returns the dataflow engine.
func New() *Engine { return &Engine{} }

// Name implements platform.Platform.
func (e *Engine) Name() string { return "dataflow" }

// Description implements platform.Platform.
func (e *Engine) Description() string {
	return "RDD-style dataset joins and shuffles (GraphX/Spark-style)"
}

// Distributed implements platform.Platform.
func (e *Engine) Distributed() bool { return true }

// Supports implements platform.Platform; all six algorithms are expressed
// as dataflows (the paper's GraphX fails CDLP and LCC at scale — here that
// manifests as SLA breaks rather than a missing implementation).
func (e *Engine) Supports(a algorithms.Algorithm) bool {
	switch a {
	case algorithms.BFS, algorithms.PR, algorithms.WCC, algorithms.CDLP, algorithms.LCC, algorithms.SSSP:
		return true
	}
	return false
}

// edgePartition is one partition of the edge dataset.
type edgePartition struct {
	src, dst []int32
	w        []float64 // nil when unweighted
	// needSrc / needDst are the routing tables: the distinct vertices
	// whose attributes this partition needs on the source / destination
	// side of its triplets.
	needSrc, needDst []int32
}

type uploaded struct {
	platform.BaseUpload
	eparts []*edgePartition
	// vparts[p] lists the vertices of vertex partition p.
	vparts [][]int32
	// vpartOf[v] is the vertex partition of v; machineOfV[v] its machine.
	vpartOf   []int32
	machineOf []int32 // machine of vertex partition p
	emachine  []int32 // machine of edge partition p
	// machEparts[m] / machVparts[m] list the edge / vertex partitions
	// hosted on machine m, ascending — the per-stage task lists, built
	// once here instead of rediscovered every dataflow stage.
	machEparts [][]int
	machVparts [][]int
	// shipBytes[m] is the per-dense-iteration attribute-shuffle egress of
	// machine m, precomputed from the routing tables.
	shipBytes []int64
	degrees   []int32 // out-degrees dataset, precomputed at load
	// scratch caches the shuffle plane (staging buffers, CSR inbox,
	// frontier flags, label histogram) between Execute calls.
	scratch mplane.Pool
}

func (u *uploaded) Free() {
	u.BaseUpload.Free()
	u.eparts = nil
}

// partitioning constants: like Spark, the engine over-partitions relative
// to the machine count to balance tasks.
const (
	edgePartsPerMachine   = 4
	vertexPartsPerMachine = 2
)

// Upload implements platform.Platform: it materializes the edge and vertex
// datasets, builds routing tables, and registers the (substantial) memory
// the dataflow representation occupies. The context is checked between
// the materialization phases and periodically inside the per-vertex edge
// scan, so an SLA timer cancels a pathological upload mid-flight.
func (e *Engine) Upload(ctx context.Context, g *graph.Graph, cfg platform.RunConfig) (platform.Uploaded, error) {
	if err := platform.CheckContext(ctx); err != nil {
		return nil, err
	}
	cl := cluster.New(cfg.ClusterConfig())
	M := cl.Machines()
	nep := M * edgePartsPerMachine
	nvp := M * vertexPartsPerMachine
	n := g.NumVertices()

	u := &uploaded{
		BaseUpload: platform.BaseUpload{G: g, Cl: cl},
		eparts:     make([]*edgePartition, nep),
		vparts:     make([][]int32, nvp),
		vpartOf:    make([]int32, n),
		machineOf:  make([]int32, nvp),
		emachine:   make([]int32, nep),
		shipBytes:  make([]int64, M),
		degrees:    make([]int32, n),
	}
	u.machEparts = make([][]int, M)
	u.machVparts = make([][]int, M)
	for p := 0; p < nvp; p++ {
		u.machineOf[p] = int32(p % M)
		u.machVparts[p%M] = append(u.machVparts[p%M], p)
	}
	for p := 0; p < nep; p++ {
		u.emachine[p] = int32(p % M)
		u.eparts[p] = &edgePartition{}
		u.machEparts[p%M] = append(u.machEparts[p%M], p)
	}
	for v := 0; v < n; v++ {
		p := int32(v % nvp)
		u.vpartOf[v] = p
		u.vparts[p] = append(u.vparts[p], int32(v))
		u.degrees[v] = int32(g.OutDegree(int32(v)))
	}
	// Round-robin arcs over edge partitions. Undirected edges are stored
	// once and expanded to both triplet directions by the send stage.
	idx := 0
	for v := int32(0); v < int32(n); v++ {
		if v&0xffff == 0 {
			if err := platform.CheckContext(ctx); err != nil {
				return nil, err
			}
		}
		ws := g.OutWeights(v)
		for i, d := range g.OutNeighbors(v) {
			if !g.Directed() && d < v {
				continue
			}
			ep := u.eparts[idx%nep]
			ep.src = append(ep.src, v)
			ep.dst = append(ep.dst, d)
			if ws != nil {
				ep.w = append(ep.w, ws[i])
			}
			idx++
		}
	}
	// Routing tables and per-iteration shuffle volume.
	for p, ep := range u.eparts {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		ep.needSrc = distinct(ep.src)
		ep.needDst = distinct(ep.dst)
		em := u.emachine[p]
		for _, v := range ep.needSrc {
			if vm := u.machineOf[u.vpartOf[v]]; vm != em {
				u.shipBytes[vm] += 12
			}
		}
		for _, v := range ep.needDst {
			if vm := u.machineOf[u.vpartOf[v]]; vm != em {
				u.shipBytes[vm] += 12
			}
		}
	}
	// Memory: triplet storage (src, dst, weight and two attribute slots
	// per stored edge) plus routing tables plus the vertex dataset.
	perMachine := make([]int64, M)
	for p, ep := range u.eparts {
		b := int64(len(ep.src))*(8+16) + int64(len(ep.needSrc)+len(ep.needDst))*4 + int64(len(ep.w))*8
		perMachine[u.emachine[p]] += b
	}
	for p, verts := range u.vparts {
		perMachine[u.machineOf[p]] += int64(len(verts)) * 24
	}
	if err := u.Register(perMachine); err != nil {
		return nil, fmt.Errorf("dataflow: upload %s: %w", g.Name(), err)
	}
	return u, nil
}

// distinct returns the sorted distinct values of xs.
func distinct(xs []int32) []int32 {
	if len(xs) == 0 {
		return nil
	}
	out := append([]int32(nil), xs...)
	slices.Sort(out)
	uniq := out[:0]
	for i, x := range out {
		if i == 0 || x != out[i-1] {
			uniq = append(uniq, x)
		}
	}
	return uniq
}

// Execute implements platform.Platform.
func (e *Engine) Execute(ctx context.Context, up platform.Uploaded, a algorithms.Algorithm, p algorithms.Params) (*platform.Result, error) {
	return platform.Execute(ctx, e, up, a, p, platform.Hooks[*uploaded]{
		StateBytes: shuffleBytes,
		Run:        run,
		Process: func(j *platform.Job[*uploaded]) {
			j.Annotate("rounds", j.Upload.Cl.Rounds())
			j.Annotate("edge_partitions", len(j.Upload.eparts))
		},
	})
}

// shuffleBytes covers the message buffers and join maps: the engine
// re-materializes these per iteration, so the registration covers the
// peak of one iteration, on every machine.
func shuffleBytes(u *uploaded, _ algorithms.Algorithm) int64 {
	return int64(u.G.NumVertices()) * 48
}

func run(ctx context.Context, j *platform.Job[*uploaded]) (*algorithms.Output, error) {
	u, p := j.Upload, j.Params
	switch j.Algorithm {
	case algorithms.BFS:
		return j.Ints(bfsFlow(ctx, u, j.Source))
	case algorithms.PR:
		return j.Floats(prFlow(ctx, u, p.Iterations, p.Damping))
	case algorithms.WCC:
		return j.Ints(wccFlow(ctx, u))
	case algorithms.CDLP:
		return j.Ints(cdlpFlow(ctx, u, p.Iterations))
	case algorithms.LCC:
		return j.Floats(lccFlow(ctx, u))
	case algorithms.SSSP:
		return j.Floats(ssspFlow(ctx, u, j.Source))
	}
	return nil, fmt.Errorf("%w: %s", platform.ErrUnsupported, j.Algorithm)
}
