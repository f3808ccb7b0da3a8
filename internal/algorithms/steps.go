package algorithms

import (
	"math"
	"sync/atomic"

	"graphalytics/internal/graph"
	"graphalytics/internal/mplane"
)

// Kernel steps: the per-chunk bodies of the parallel reference kernels,
// exported so engines can reuse them under their own chunking. The
// parallel kernels in parallel.go run these under par.Chunks; the native
// engine runs the same functions under its simulated thread pool
// (cluster.Threads), so both execute one shared, well-tested kernel body.
//
// Every step is safe to run concurrently on disjoint [lo, hi) ranges of
// the same output arrays. Steps that may touch shared state across chunks
// (BFSExpand's depth claims) use atomics; everything else writes only
// inside its own range.

// BFSExpand scans a slice of the current BFS frontier and claims every
// still-unreached out-neighbor at the given level, returning the claimed
// vertices in scan order. Claims are atomic compare-and-swaps on the depth
// array, so concurrent chunks never claim a vertex twice, and the depth
// value written is the same regardless of which chunk wins. The cheap
// atomic load filters out already-visited neighbors (the vast majority of
// edge traversals) before paying for a CAS, so the per-edge cost stays
// close to the sequential kernel's plain compare.
func BFSExpand(g *graph.Graph, depth []int64, frontier []int32, level int64) []int32 {
	var next []int32
	for _, v := range frontier {
		for _, u := range g.OutNeighbors(v) {
			if atomic.LoadInt64(&depth[u]) == Unreachable &&
				atomic.CompareAndSwapInt64(&depth[u], Unreachable, level) {
				next = append(next, u)
			}
		}
	}
	return next
}

// PRContribRange fills contrib[v] = rank[v]/outdeg(v) for v in [lo, hi)
// (zero for dangling vertices) and returns the range's dangling rank mass,
// accumulated left to right — the block partial of the fixed reduction
// tree the PageRank kernels sum dangling mass with.
//
//graphalint:noalloc per-chunk superstep body: writes only into caller-owned arrays
//graphalint:orderfree block partial: left-to-right fold within one fixed [lo, hi) block, summed by callers in block order
func PRContribRange(g *graph.Graph, rank, contrib []float64, lo, hi int) float64 {
	var dangling float64
	for v := lo; v < hi; v++ {
		if deg := g.OutDegree(int32(v)); deg == 0 {
			dangling += rank[v]
			contrib[v] = 0
		} else {
			contrib[v] = rank[v] / float64(deg)
		}
	}
	return dangling
}

// PRPullRange computes next[v] = base + damping * sum of contrib over v's
// in-neighbors for v in [lo, hi). The per-vertex sum follows in-neighbor
// order, so the result does not depend on how vertices are chunked.
//
//graphalint:noalloc per-chunk superstep body: writes only into caller-owned arrays
//graphalint:orderfree per-vertex fold follows CSR in-neighbor order, independent of chunking
func PRPullRange(g *graph.Graph, contrib, next []float64, base, damping float64, lo, hi int) {
	for v := lo; v < hi; v++ {
		sum := 0.0
		for _, u := range g.InNeighbors(int32(v)) {
			sum += contrib[u]
		}
		next[v] = base + damping*sum
	}
}

// CDLPRangeHist runs one synchronous label-propagation step for v in
// [lo, hi): next[v] becomes the most frequent label among v's neighbors
// (counting a neighbor on both an in- and an out-edge twice in directed
// graphs), smallest label on ties. It counts into a caller-owned
// histogram, so callers that chunk sequentially (the native engine's
// simulated threads) reuse one. The histogram's (highest count, smallest
// label) argmax is order-independent, so the result is identical to the
// map-based fold it replaced.
//
//graphalint:noalloc per-chunk superstep body: counts into the caller-owned histogram
func CDLPRangeHist(g *graph.Graph, labels, next []int64, lo, hi int, h *mplane.Histogram) {
	for v := lo; v < hi; v++ {
		h.Reset()
		for _, u := range g.OutNeighbors(int32(v)) {
			h.Add(labels[u])
		}
		if g.Directed() {
			for _, u := range g.InNeighbors(int32(v)) {
				h.Add(labels[u])
			}
		}
		next[v] = h.Best(labels[v])
	}
}

// CDLPFrontierRange is the frontier-gated variant of CDLPRangeHist on the
// dense label domain: labels are internal vertex indices (monotone with
// external IDs, so the (count, smallest) argmax is isomorphic — see
// mplane.LabelCounts), counted by direct indexing instead of hashing. It
// recomputes only the vertices in [lo, hi) whose dirty stamp matches this
// round (a neighbor changed last round) and copies labels through for the
// rest. A nil dirty slice means every vertex is dirty (round zero).
// changed[v] records whether v's label moved this round — the input to the
// next round's CDLPScatterRange — and the return value counts the changed
// vertices in the range, so callers can stop at a fixpoint: once a round
// changes nothing, every future round would also change nothing, and the
// early exit is bit-identical to running all remaining rounds.
//
// Skipping is exact, not approximate. A skipped vertex saw no neighbor
// change, so its label multiset is the one it already folded; the argmax
// depends only on the multiset whenever the multiset is non-empty (the
// vertex's own label only breaks the empty case, and then it is unchanged
// too), so recomputing would reproduce labels[v] bit for bit.
//
//graphalint:noalloc per-chunk superstep body: counts into the caller-owned dense counter
func CDLPFrontierRange(g *graph.Graph, labels, next []int32, lo, hi int, c *mplane.LabelCounts, dirty []uint32, stamp uint32, changed []bool) int {
	cnt := 0
	directed := g.Directed()
	for v := lo; v < hi; v++ {
		if dirty != nil && dirty[v] != stamp {
			next[v] = labels[v]
			changed[v] = false
			continue
		}
		nl := cdlpFold(g, labels, int32(v), directed, c)
		next[v] = nl
		if nl != labels[v] {
			changed[v] = true
			cnt++
		} else {
			changed[v] = false
		}
	}
	return cnt
}

// CDLPInitRange runs CDLP's round zero in closed form, assuming identity
// labels (labels[u] == u, the initial state). Every label in the multiset
// is then distinct per neighbor and adjacency lists are sorted ascending,
// so the argmax needs no counter: on undirected graphs every count is 1
// and the winner is the smallest neighbor — out[0]; on directed graphs a
// vertex appearing in both out(v) and in(v) counts twice and beats all
// singletons, so the winner is the smallest out/in duplicate (the first
// hit of a sorted merge) or, failing that, the smaller of the two list
// heads. next[v] receives the winner (or v when isolated), changed[v]
// whether it moved, and the return value counts the changed vertices.
//
//graphalint:noalloc per-chunk superstep body: the closed form never touches a counter
func CDLPInitRange(g *graph.Graph, next []int32, changed []bool, lo, hi int) int {
	cnt := 0
	directed := g.Directed()
	for v := lo; v < hi; v++ {
		var in []int32
		if directed {
			in = g.InNeighbors(int32(v))
		}
		nl := CDLPInitLabel(int32(v), g.OutNeighbors(int32(v)), in, directed)
		next[v] = nl
		if nl != int32(v) {
			changed[v] = true
			cnt++
		} else {
			changed[v] = false
		}
	}
	return cnt
}

// CDLPInitLabel is the per-vertex closed form of the round-zero update,
// usable by engines over their own (sorted, duplicate-free) adjacency
// layouts: fwd is the vertex's neighbor list (undirected graphs pass only
// this), rev the opposite direction for directed graphs.
//
//graphalint:noalloc
func CDLPInitLabel(v int32, fwd, rev []int32, directed bool) int32 {
	if !directed {
		if len(fwd) > 0 {
			return fwd[0]
		}
		return v
	}
	i, j := 0, 0
	for i < len(fwd) && j < len(rev) {
		switch {
		case fwd[i] < rev[j]:
			i++
		case rev[j] < fwd[i]:
			j++
		default:
			return fwd[i] // smallest duplicate: the only count-2 winner
		}
	}
	switch {
	case len(fwd) > 0 && (len(rev) == 0 || fwd[0] < rev[0]):
		return fwd[0]
	case len(rev) > 0:
		return rev[0]
	}
	return v
}

// CDLPFoldVertex computes one vertex's CDLP update on the dense label
// domain — the multiset argmax of the neighbors' labels — for engines
// whose round structure walks their own vertex lists rather than index
// ranges. c must be an all-zero counter sized for the domain; it is left
// all-zero again on return.
//
//graphalint:noalloc
func CDLPFoldVertex(g *graph.Graph, labels []int32, v int32, c *mplane.LabelCounts) int32 {
	return cdlpFold(g, labels, v, g.Directed(), c)
}

// cdlpFold computes one vertex's CDLP update on the dense label domain.
// Degree-0/1/2 neighborhoods — the bulk of many real graphs — resolve
// without touching the counter: a single label wins outright, and two
// labels tie toward the smaller exactly as the argmax would.
//
//graphalint:noalloc
func cdlpFold(g *graph.Graph, labels []int32, v int32, directed bool, c *mplane.LabelCounts) int32 {
	out := g.OutNeighbors(v)
	if !directed {
		switch len(out) {
		case 0:
			return labels[v]
		case 1:
			return labels[out[0]]
		case 2:
			a, b := labels[out[0]], labels[out[1]]
			if b < a {
				return b
			}
			return a
		}
		for _, u := range out {
			c.Add(labels[u])
		}
		return c.BestAndReset(labels[v])
	}
	in := g.InNeighbors(v)
	switch len(out) + len(in) {
	case 0:
		return labels[v]
	case 1:
		if len(out) == 1 {
			return labels[out[0]]
		}
		return labels[in[0]]
	}
	for _, u := range out {
		c.Add(labels[u])
	}
	for _, u := range in {
		c.Add(labels[u])
	}
	return c.BestAndReset(labels[v])
}

// CDLPScatterRange marks the next round's frontier: every neighbor of a
// vertex that changed this round gets its dirty slot stamped with the next
// round's stamp. The dependency set of a vertex is its out- plus
// in-neighborhood (both directions count in CDLP), and adjacency is
// symmetric across the pair — u is in v's multiset exactly when v is in
// u's scatter set — so stamping out(u) and, on directed graphs, in(u)
// reaches precisely the vertices whose multiset u's change invalidated
// (including u itself via self-loops). Loads and stores are atomic
// because chunks race on shared neighbors; all writes store the same
// stamp, so the outcome is order-independent, and the load-before-store
// turns the common already-marked case (shared neighbors of hubs) into a
// read instead of a contended write. Stamps make clearing unnecessary: a
// slot is dirty only if it holds exactly this round's stamp.
//
//graphalint:noalloc per-chunk superstep body: atomic stamp stores only
func CDLPScatterRange(g *graph.Graph, changed []bool, dirty []uint32, stamp uint32, lo, hi int) {
	for v := lo; v < hi; v++ {
		if !changed[v] {
			continue
		}
		for _, u := range g.OutNeighbors(int32(v)) {
			if atomic.LoadUint32(&dirty[u]) != stamp {
				atomic.StoreUint32(&dirty[u], stamp)
			}
		}
		if g.Directed() {
			for _, u := range g.InNeighbors(int32(v)) {
				if atomic.LoadUint32(&dirty[u]) != stamp {
					atomic.StoreUint32(&dirty[u], stamp)
				}
			}
		}
	}
}

// CDLPScatterWorthwhile decides whether the next round should bother with
// a frontier at all: once more than 1/8 of the vertices changed, their
// combined neighborhoods blanket the graph, so the next round is treated
// as fully dirty and the scatter pass is skipped entirely. Over-marking
// is always exact — recomputing a clean vertex reproduces its label bit
// for bit — so this trades a few redundant folds for skipping the
// edge-proportional marking sweep in exactly the rounds where it is most
// expensive and least selective.
func CDLPScatterWorthwhile(changedCount, n int) bool {
	return changedCount*8 <= n
}

// SSSPRelaxRange relaxes the out-edges of a slice of the current
// delta-stepping frontier against the shared distance array (float64 bits;
// see SSSPBuckets) and returns out extended with every vertex whose
// distance improved, claimed exactly once per relax phase. Improvements
// are CAS-min loops on the raw bits — non-negative floats order the same
// as their bit patterns' values, and distances only decrease — and the
// claim is a CAS on the phase stamp so concurrent chunks never append the
// same vertex twice in one phase. A frontier vertex whose own distance
// improves mid-scan may relax with a stale (larger) value; that is just a
// weaker relaxation, and the improver has re-claimed the vertex for the
// next phase, so the fixpoint is unaffected.
//
//graphalint:noalloc appends extend the caller's pooled out buffer in place
func SSSPRelaxRange(g *graph.Graph, dist []uint64, frontier []int32, claimed []uint32, stamp uint32, out []int32) []int32 {
	for _, v := range frontier {
		dv := math.Float64frombits(atomic.LoadUint64(&dist[v]))
		ns := g.OutNeighbors(v)
		ws := g.OutWeights(v)
		for i, u := range ns {
			nd := dv + ws[i]
			ndBits := math.Float64bits(nd)
			for {
				old := atomic.LoadUint64(&dist[u])
				if math.Float64frombits(old) <= nd {
					break
				}
				if atomic.CompareAndSwapUint64(&dist[u], old, ndBits) {
					for {
						c := atomic.LoadUint32(&claimed[u])
						if c == stamp {
							break
						}
						if atomic.CompareAndSwapUint32(&claimed[u], c, stamp) {
							out = append(out, u)
							break
						}
					}
					break
				}
			}
		}
	}
	return out
}

// LCCMarks is the mark array of the one LCC counting step shared by the
// parallel reference and the native, gas, spmv and pregel engines (RefLCC,
// the sequential oracle the tests compare against, keeps its own loop).
// Entry u holds the vertex whose neighborhood last stamped u, or -1. A
// vertex v's closed wedges are counted by stamping N(v) once (Stamp) and
// then, for every neighbor u, counting the entries of u's out-list that
// carry v's stamp (Count): O(deg(u)) per neighbor, where a sorted merge of
// the two lists pays O(deg(u) + |N(v)|), which is Θ(|N(v)|²) on a hub.
// Stamps are vertex indices and every vertex is stamped once per job, so
// a mark array needs resetting only when a job checks it out
// (ResetLCCMarks); after that no stale stamp can match.
type LCCMarks []int32

// ResetLCCMarks returns one mark array per worker, each with n unstamped
// entries, reusing the arrays and capacity of ms (typically an engine's
// pooled scratch).
func ResetLCCMarks(ms []LCCMarks, workers, n int) []LCCMarks {
	ms = mplane.Grow(ms, workers)
	for w := range ms {
		ms[w] = mplane.Grow(ms[w], n)
		for i := range ms[w] {
			ms[w][i] = -1
		}
	}
	return ms
}

// Stamp marks every vertex of hood, the neighborhood of v, with v.
//
//graphalint:noalloc LCC stamp: runs once per vertex
func (m LCCMarks) Stamp(hood []int32, v int32) {
	for _, u := range hood {
		m[u] = v
	}
}

// Count returns how many entries of list — the out-list of one neighbor
// of v — carry v's stamp and are not v: the arcs from that neighbor into
// N(v). It needs no ordering of list.
//
//graphalint:noalloc LCC inner loop: runs once per neighbor of every vertex
func (m LCCMarks) Count(list []int32, v int32) int {
	arcs := 0
	for _, w := range list {
		if w != v && m[w] == v {
			arcs++
		}
	}
	return arcs
}

// LCCRange computes local clustering coefficients for v in [lo, hi) into
// out, through the worker's mark array (see LCCMarks) and a chunk-private
// neighborhood buffer. The neighborhood is the union of in- and
// out-neighbors; each direction between two neighbors counts separately
// (see RefLCC).
func LCCRange(g *graph.Graph, marks LCCMarks, out []float64, lo, hi int) {
	var hood []int32
	for v := lo; v < hi; v++ {
		hood = neighborhood(g, int32(v), hood[:0])
		d := len(hood)
		if d < 2 {
			out[v] = 0
			continue
		}
		marks.Stamp(hood, int32(v))
		arcs := 0
		for _, u := range hood {
			arcs += marks.Count(g.OutNeighbors(u), int32(v))
		}
		out[v] = float64(arcs) / (float64(d) * float64(d-1))
	}
}
