package algorithms

import (
	"sync/atomic"

	"graphalytics/internal/graph"
	"graphalytics/internal/mplane"
	"graphalytics/internal/par"
)

// Parallel reference kernels. Validation (requirement R3) compares every
// platform output against the reference output, so reference computation
// sits on the critical path of every validated job; these kernels fan that
// work out over the shared internal/par runtime while keeping the output
// bit-identical to the sequential oracles in reference.go at every worker
// count:
//
//   - Integer kernels (BFS, WCC, CDLP) produce values that do not depend
//     on evaluation order: BFS is level-synchronous, WCC's labels are the
//     canonical per-component minima, CDLP's argmax is order-independent.
//   - Float kernels reduce through a fixed tree: PageRank's dangling mass
//     is summed over fixed par.SumBlock-sized blocks whose boundaries do
//     not depend on the worker count, and per-vertex neighbor sums always
//     follow adjacency order. LCC is computed per vertex from integer
//     counts. First-come accumulation is never used.
//
// Each kernel takes an explicit worker count; workers <= 0 selects
// par.Workers sizing from |V|+|E|. SSSP's parallel variant is the
// deterministic delta-stepping ParSSSP in sssp.go: relaxation to a
// fixpoint is order-independent for non-negative weights, so it matches
// Dijkstra's output bit for bit (RefSSSP stays as the sequential oracle).

// ParBFS is the parallel counterpart of RefBFS: a level-synchronous BFS
// whose per-worker next-frontiers are merged in chunk order. With
// automatic sizing (workers <= 0) the worker count adapts per level to
// the frontier's estimated edge work — high-diameter graphs spend most
// levels on tiny frontiers that would otherwise pay a full fork-join —
// while an explicit count is honored on every level. The depth output is
// chunking-independent, so both modes are bit-identical.
func ParBFS(g *graph.Graph, source int32, workers int) []int64 {
	n := g.NumVertices()
	p := par.Resolve(workers, n+int(g.NumEdges()))
	arcsPerVertex := 1
	if n > 0 {
		arcs := int(g.NumEdges())
		if !g.Directed() {
			arcs *= 2
		}
		arcsPerVertex += arcs / n
	}
	depth := make([]int64, n)
	for i := range depth {
		depth[i] = Unreachable
	}
	depth[source] = 0
	frontier := []int32{source}
	for level := int64(1); len(frontier) > 0; level++ {
		pl := p
		if workers <= 0 {
			if auto := par.Workers(len(frontier) * arcsPerVertex); auto < pl {
				pl = auto
			}
		}
		parts := par.Accumulate(len(frontier), pl, func(_, lo, hi int) []int32 {
			return BFSExpand(g, depth, frontier[lo:hi], level)
		})
		total := 0
		for _, part := range parts {
			total += len(part)
		}
		next := make([]int32, 0, total)
		for _, part := range parts {
			next = append(next, part...)
		}
		frontier = next
	}
	return depth
}

// ParPageRank is the parallel counterpart of RefPageRank: a blocked
// pull-based PageRank whose dangling-mass partial sums reduce through the
// same fixed block tree as the sequential oracle.
func ParPageRank(g *graph.Graph, iterations int, damping float64, workers int) []float64 {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	p := par.Resolve(workers, n+int(g.NumEdges()))
	rank := make([]float64, n)
	next := make([]float64, n)
	contrib := make([]float64, n) // rank[v]/outdeg(v), recomputed per iteration
	inv := 1.0 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	for it := 0; it < iterations; it++ {
		dangling := par.SumBlocked(n, p, func(lo, hi int) float64 {
			return PRContribRange(g, rank, contrib, lo, hi)
		})
		base := (1-damping)*inv + damping*dangling*inv
		par.Chunks(n, p, func(_, lo, hi int) {
			PRPullRange(g, contrib, next, base, damping, lo, hi)
		})
		rank, next = next, rank
	}
	return rank
}

// ParWCC is the parallel counterpart of RefWCC: a concurrent lock-free
// union-find over the edge set followed by a sequential flattening pass.
// Roots are always the smallest internal index of their component (links
// go strictly from larger to smaller roots), so the output is the
// canonical smallest-external-identifier labeling whatever the interleaving.
func ParWCC(g *graph.Graph, workers int) []int64 {
	n := g.NumVertices()
	p := par.Resolve(workers, n+int(g.NumEdges()))
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	par.Chunks(n, p, func(_, lo, hi int) {
		for v := int32(lo); v < int32(hi); v++ {
			for _, u := range g.OutNeighbors(v) {
				unite(parent, v, u)
			}
		}
	})
	// Sequential tie-break/flatten pass: workers have joined, so plain
	// path-halving finds are safe, and every vertex resolves to its
	// component's minimal root.
	labels := make([]int64, n)
	for v := int32(0); v < int32(n); v++ {
		labels[v] = g.VertexID(findSeq(parent, v))
	}
	return labels
}

// unite merges the components of a and b in the concurrent union-find:
// the larger of the two roots is linked under the smaller with a CAS that
// only succeeds while it is still a root; a lost race re-reads the roots
// and retries.
func unite(parent []int32, a, b int32) {
	for {
		ra, rb := findCAS(parent, a), findCAS(parent, b)
		if ra == rb {
			return
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		if atomic.CompareAndSwapInt32(&parent[rb], rb, ra) {
			return
		}
	}
}

// findCAS walks to the root with atomic loads, halving paths with
// best-effort CAS (a failed halving is harmless: the parent it read is
// still an ancestor, since links only ever move parents to smaller roots).
func findCAS(parent []int32, v int32) int32 {
	for {
		p := atomic.LoadInt32(&parent[v])
		if p == v {
			return v
		}
		gp := atomic.LoadInt32(&parent[p])
		if gp == p {
			return p
		}
		atomic.CompareAndSwapInt32(&parent[v], p, gp)
		v = gp
	}
}

// findSeq is the sequential path-halving find used after the fork-join.
func findSeq(parent []int32, v int32) int32 {
	for parent[v] != v {
		parent[v] = parent[parent[v]]
		v = parent[v]
	}
	return v
}

// ParCDLP is the parallel counterpart of RefCDLP: frontier-based
// synchronous label propagation on the dense label domain. Labels are
// internal vertex indices throughout (translated to external IDs once at
// the end; the builder assigns indices in ascending ID order, so the
// argmax is isomorphic — see mplane.LabelCounts). Each round recomputes
// only the vertices whose neighborhood changed last round
// (CDLPFrontierRange; round zero treats every vertex as dirty) and then
// stamps the next round's frontier from the changed set
// (CDLPScatterRange). Chunk-private counters are allocated once per
// worker and reused across rounds, and the loop stops early at a
// fixpoint — both bit-identical to the dense kernel, since a skipped
// vertex folds an unchanged multiset and a converged round persists
// forever.
func ParCDLP(g *graph.Graph, iterations int, workers int) []int64 {
	n := g.NumVertices()
	p := par.Resolve(workers, n+int(g.NumEdges()))
	out := make([]int64, n)
	labels := make([]int32, n)
	next := make([]int32, n)
	for v := int32(0); v < int32(n); v++ {
		labels[v] = v
	}
	if n == 0 {
		return out
	}
	dirty := make([]uint32, n)
	changed := make([]bool, n)
	counters := make([]*mplane.LabelCounts, p)
	dense := true // round zero treats every vertex as dirty
	for it := 0; it < iterations; it++ {
		var d []uint32
		if !dense {
			d = dirty
		}
		stamp := uint32(it)
		var counts []int
		if it == 0 {
			// Identity labels admit a closed-form first round with no
			// counter at all (see CDLPInitRange).
			counts = par.Accumulate(n, p, func(_, lo, hi int) int {
				return CDLPInitRange(g, next, changed, lo, hi)
			})
		} else {
			counts = par.Accumulate(n, p, func(w, lo, hi int) int {
				c := counters[w]
				if c == nil {
					c = &mplane.LabelCounts{}
					c.EnsureDomain(n)
					counters[w] = c
				}
				return CDLPFrontierRange(g, labels, next, lo, hi, c, d, stamp, changed)
			})
		}
		labels, next = next, labels
		total := 0
		for _, c := range counts {
			total += c
		}
		if total == 0 {
			break
		}
		dense = !CDLPScatterWorthwhile(total, n)
		if !dense && it+1 < iterations {
			par.Chunks(n, p, func(_, lo, hi int) {
				CDLPScatterRange(g, changed, dirty, uint32(it+1), lo, hi)
			})
		}
	}
	for v := 0; v < n; v++ {
		out[v] = g.VertexID(labels[v])
	}
	return out
}

// ParLCC is the parallel counterpart of RefLCC: local clustering
// coefficients over vertex chunks with one mark array per worker.
func ParLCC(g *graph.Graph, workers int) []float64 {
	n := g.NumVertices()
	p := par.Resolve(workers, n+int(g.NumEdges()))
	out := make([]float64, n)
	marks := ResetLCCMarks(nil, p, n)
	par.Chunks(n, p, func(w, lo, hi int) {
		LCCRange(g, marks[w], out, lo, hi)
	})
	return out
}
