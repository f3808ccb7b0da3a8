package spmv

import (
	"context"
	"math"
	"sync/atomic"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/mplane"
	"graphalytics/internal/platform"
)

// pagerank is a dense pull SpMV: every iteration runs one "apply" round
// computing the contribution vector rank/outdeg plus the dangling mass,
// then one "gather" round computing A^T * contrib per owned row. Each
// round ends with an allgather of the machine's vector slice.
func pagerank(ctx context.Context, u *uploaded, iterations int, damping float64) ([]float64, error) {
	m, cl, part := u.m, u.Cl, u.part
	n := m.n
	if n == 0 {
		return nil, nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	contrib := make([]float64, n)
	inv := 1.0 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	danglingParts := make([]float64, cl.Machines())
	for it := 0; it < iterations; it++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
			verts := part.Verts[mach]
			parts := make([]float64, th.Count())
			th.ChunksIndexed(len(verts), func(w, lo, hi int) {
				var d float64
				//graphalint:orderfree per-chunk fold in vertex order over a fixed [lo, hi) chunk
				for _, v := range verts[lo:hi] {
					deg := m.outDegree(v)
					if deg == 0 {
						d += rank[v]
						contrib[v] = 0
					} else {
						contrib[v] = rank[v] / float64(deg)
					}
				}
				parts[w] += d
			})
			var d float64
			//graphalint:orderfree chunk partials folded in worker-index order; geometry fixed by the simulated thread config, not host parallelism
			for _, x := range parts {
				d += x
			}
			danglingParts[mach] = d
			cl.Broadcast(mach, int64(len(verts))*8)
			return nil
		}); err != nil {
			return nil, err
		}
		var dangling float64
		//graphalint:orderfree partials folded in machine-index order; machine count is deployment config, not host parallelism
		for _, d := range danglingParts {
			dangling += d
		}
		base := (1-damping)*inv + damping*dangling*inv
		if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
			verts := part.Verts[mach]
			th.Chunks(len(verts), func(lo, hi int) {
				//graphalint:orderfree per-row fold follows the CSC column order, fixed by the upload-time matrix layout
				for _, v := range verts[lo:hi] {
					sum := 0.0
					for _, uix := range m.col(v) {
						sum += contrib[uix]
					}
					next[v] = base + damping*sum
				}
			})
			return nil
		}); err != nil {
			return nil, err
		}
		rank, next = next, rank
	}
	return rank, nil
}

// bfs is a sparse frontier SpMSpV over the (select, min) semiring: each
// level, the machines push from their owned frontier rows; discovered
// vertices are routed to their owning machines for the next level.
func bfs(ctx context.Context, u *uploaded, source int32) ([]int64, error) {
	m, cl, part := u.m, u.Cl, u.part
	n := m.n
	depth := make([]int64, n)
	for i := range depth {
		depth[i] = algorithms.Unreachable
	}
	depth[source] = 0
	frontiers := make([][]int32, cl.Machines())
	frontiers[part.Owner[source]] = []int32{source}
	total := 1
	for level := int64(1); total > 0; level++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		discovered := make([][]int32, cl.Machines())
		if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
			local := frontiers[mach]
			parts := make([][]int32, th.Count())
			th.ChunksIndexed(len(local), func(w, lo, hi int) {
				var buf []int32
				for _, v := range local[lo:hi] {
					for _, dst := range m.row(v) {
						if atomic.CompareAndSwapInt64(&depth[dst], algorithms.Unreachable, level) {
							buf = append(buf, dst)
						}
					}
				}
				parts[w] = buf
			})
			var merged []int32
			for _, p := range parts {
				merged = append(merged, p...)
			}
			discovered[mach] = merged
			// Route each remotely-owned discovery to its owner (12 bytes:
			// vertex id + level).
			out := make([]int64, cl.Machines())
			for _, d := range merged {
				if o := part.Owner[d]; int(o) != mach {
					out[o] += 12
				}
			}
			for o, b := range out {
				cl.Send(mach, o, b)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		for mach := range frontiers {
			frontiers[mach] = frontiers[mach][:0]
		}
		total = 0
		for _, list := range discovered {
			for _, d := range list {
				o := part.Owner[d]
				frontiers[o] = append(frontiers[o], d)
				total++
			}
		}
	}
	return depth, nil
}

// wcc iterates a dense min-SpMV (over in-edges, plus out-edges for
// directed graphs) until the label vector reaches its fixpoint.
func wcc(ctx context.Context, u *uploaded) ([]int64, error) {
	m, cl, part := u.m, u.Cl, u.part
	n := m.n
	labels := make([]int32, n)
	next := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i)
	}
	changed := make([]bool, cl.Machines())
	for {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
			verts := part.Verts[mach]
			parts := make([]bool, th.Count())
			th.ChunksIndexed(len(verts), func(w, lo, hi int) {
				ch := false
				for _, v := range verts[lo:hi] {
					best := labels[v]
					for _, uix := range m.col(v) {
						if l := labels[uix]; l < best {
							best = l
						}
					}
					if m.directed {
						for _, uix := range m.row(v) {
							if l := labels[uix]; l < best {
								best = l
							}
						}
					}
					next[v] = best
					if best != labels[v] {
						ch = true
					}
				}
				parts[w] = ch
			})
			ch := false
			for _, p := range parts {
				ch = ch || p
			}
			changed[mach] = ch
			cl.Broadcast(mach, int64(len(verts))*4)
			return nil
		}); err != nil {
			return nil, err
		}
		labels, next = next, labels
		any := false
		for _, c := range changed {
			any = any || c
		}
		if !any {
			break
		}
	}
	out := make([]int64, n)
	for v := 0; v < n; v++ {
		out[v] = u.G.VertexID(labels[v])
	}
	return out, nil
}

// spmvScratch is the pooled per-job working state of the CDLP, SSSP and
// LCC kernels, hung off the upload so repeated Execute calls reuse it.
type spmvScratch struct {
	counts  mplane.LabelCounts
	labels  []int32 // CDLP working labels (internal-index domain)
	nextLab []int32
	dirty   []bool // CDLP frontier mask: recompute v this round
	changed []bool // CDLP: v's label moved this round
	// SSSP (sparse Bellman-Ford) state.
	bits    []uint64  // tentative distances as float bits
	claimed []uint32  // per-round discovery claim stamps
	parts   [][]int32 // per-thread relax buffers
	disc    [][]int32 // per-machine merged discoveries
	fronts  [][]int32 // per-machine frontiers
	routing []int64   // per-destination-machine byte staging
	// LCC state, one entry per simulated thread.
	marks   []algorithms.LCCMarks
	hoods   [][]int32 // neighborhood buffers
	fetched [][]int64 // per-owner row-fetch bytes
}

func newSpmvScratch() *spmvScratch {
	return &spmvScratch{}
}

// cdlp runs the deterministic label-propagation iterations as frontier-
// masked column gathers on the dense label domain: labels are internal
// vertex indices counted by direct indexing (mplane.LabelCounts; the
// argmax is isomorphic to the external-ID one — see that type) and
// translated once at the end. Round zero uses the closed form over the
// sorted columns (algorithms.CDLPInitLabel); later rounds recompute only
// vertices whose neighborhood changed last round (the dirty mask, rebuilt
// between rounds as uncharged harness bookkeeping) while everyone else
// copies their label through — and while the changed set still blankets
// the graph the mask rebuild is skipped and the next round runs dense
// (algorithms.CDLPScatterWorthwhile; over-marking is exact). The argmax
// depends only on the multiset, so a skipped vertex would have recomputed
// exactly its current label and the masked rounds are bit-identical to
// the dense ones, as is stopping early once a round changes nothing. The
// allgather shrinks with the frontier: instead of each machine
// re-broadcasting its dense label slice, it ships one sparse (id, label)
// update per changed vertex.
func cdlp(ctx context.Context, u *uploaded, iterations int) ([]int64, error) {
	m, cl, part := u.m, u.Cl, u.part
	n := m.n
	out := make([]int64, n)
	if n == 0 {
		return out, nil
	}
	sc := mplane.Acquire(&u.scratch, newSpmvScratch)
	defer u.scratch.Put(sc)
	sc.counts.EnsureDomain(n)
	sc.labels = mplane.Grow(sc.labels, n)
	sc.nextLab = mplane.Grow(sc.nextLab, n)
	labels, next := sc.labels, sc.nextLab
	for v := int32(0); v < int32(n); v++ {
		labels[v] = v
	}
	sc.dirty = mplane.Grow(sc.dirty, n)
	sc.changed = mplane.Grow(sc.changed, n)
	dirty, changed := sc.dirty, sc.changed
	dense := true // round zero treats every vertex as dirty
	for it := 0; it < iterations; it++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		first := it == 0
		total := 0
		if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
			verts := part.Verts[mach]
			updates := 0
			th.Chunks(len(verts), func(lo, hi int) {
				for _, v := range verts[lo:hi] {
					if !dense && !dirty[v] {
						next[v] = labels[v]
						changed[v] = false
						continue
					}
					var nl int32
					if first {
						nl = algorithms.CDLPInitLabel(v, m.col(v), m.row(v), m.directed)
					} else {
						// Column gather (in-neighbors); undirected graphs
						// have a symmetric matrix so this is the whole
						// neighborhood.
						for _, uix := range m.col(v) {
							sc.counts.Add(labels[uix])
						}
						if m.directed {
							for _, uix := range m.row(v) {
								sc.counts.Add(labels[uix])
							}
						}
						nl = sc.counts.BestAndReset(labels[v])
					}
					next[v] = nl
					if nl != labels[v] {
						changed[v] = true
						updates++
					} else {
						changed[v] = false
					}
				}
			})
			total += updates
			// Sparse allgather: vertex id + label per changed vertex.
			cl.Broadcast(mach, int64(updates)*12)
			return nil
		}); err != nil {
			return nil, err
		}
		labels, next = next, labels
		if total == 0 {
			break
		}
		dense = !algorithms.CDLPScatterWorthwhile(total, n)
		if !dense && it+1 < iterations {
			// Rebuild the dirty mask from the changed set: v's multiset
			// reads col(v) (+row(v) directed), so a changed u reaches
			// exactly row(u) (+col(u) directed). Uncharged bookkeeping,
			// like the pregel engine's active-list rebuild.
			clear(dirty)
			for v := int32(0); v < int32(n); v++ {
				if !changed[v] {
					continue
				}
				for _, d := range m.row(v) {
					dirty[d] = true
				}
				if m.directed {
					for _, d := range m.col(v) {
						dirty[d] = true
					}
				}
			}
		}
	}
	for v := int32(0); v < int32(n); v++ {
		out[v] = u.G.VertexID(labels[v])
	}
	return out, nil
}

// lcc counts triangles as masked sparse row intersections: for vertex v
// with neighborhood N(v), the number of closed wedges is the sum over
// u in N(v) of |row(u) ∩ N(v)|, counted against N(v)'s stamps in a
// pooled per-thread mark array (algorithms.LCCMarks). Remote rows must
// be fetched, which the engine accounts as traffic from the row owner.
func lcc(ctx context.Context, u *uploaded) ([]float64, error) {
	m, cl, part := u.m, u.Cl, u.part
	n := m.n
	out := make([]float64, n)
	sc := mplane.Acquire(&u.scratch, newSpmvScratch)
	defer u.scratch.Put(sc)
	threads := cl.Threads()
	sc.marks = algorithms.ResetLCCMarks(sc.marks, threads, n)
	sc.hoods = mplane.Grow(sc.hoods, threads)
	sc.fetched = mplane.Grow(sc.fetched, threads)
	err := cl.RunRound(func(mach int, th *cluster.Threads) error {
		verts := part.Verts[mach]
		for w := range sc.fetched {
			sc.fetched[w] = mplane.GrowZero(sc.fetched[w], cl.Machines())
		}
		th.ChunksIndexed(len(verts), func(w, lo, hi int) {
			marks, hood, fetched := sc.marks[w], sc.hoods[w], sc.fetched[w]
			for _, v := range verts[lo:hi] {
				hood = unionSorted(m.row(v), m.col(v), v, m.directed, hood[:0])
				d := len(hood)
				if d < 2 {
					continue
				}
				marks.Stamp(hood, v)
				arcs := 0
				for _, uix := range hood {
					if o := part.Owner[uix]; int(o) != mach {
						fetched[o] += int64(m.outDegree(uix)) * 4
					}
					arcs += marks.Count(m.row(uix), v)
				}
				out[v] = float64(arcs) / (float64(d) * float64(d-1))
			}
			sc.hoods[w] = hood
		})
		for _, f := range sc.fetched[:th.Count()] {
			for o, b := range f {
				cl.Send(o, mach, b)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := platform.CheckContext(ctx); err != nil {
		return nil, err
	}
	return out, nil
}

// unionSorted merges two sorted neighbor lists, dropping duplicates and
// self. For undirected (symmetric) matrices only the row is used.
//
//graphalint:noalloc appends extend the caller's pooled buffer in place
func unionSorted(row, col []int32, v int32, directed bool, buf []int32) []int32 {
	if !directed {
		buf = append(buf, row...)
		return buf
	}
	i, j := 0, 0
	for i < len(row) || j < len(col) {
		var next int32
		switch {
		case i == len(row):
			next = col[j]
			j++
		case j == len(col):
			next = row[i]
			i++
		case row[i] < col[j]:
			next = row[i]
			i++
		case col[j] < row[i]:
			next = col[j]
			j++
		default:
			next = row[i]
			i++
			j++
		}
		if next != v {
			buf = append(buf, next)
		}
	}
	return buf
}

// sssp is a sparse Bellman-Ford SpMSpV over the (min, +) semiring with
// frontier routing identical to bfs. All per-round buffers come from the
// upload's scratch pool, so steady-state runs allocate only the output
// vector; the per-round discovery dedup uses claim stamps (the stamp
// changes every round, so the claim array is cleared once per job rather
// than re-zeroed between rounds).
func sssp(ctx context.Context, u *uploaded, source int32) ([]float64, error) {
	m, cl, part := u.m, u.Cl, u.part
	n := m.n
	sc := mplane.Acquire(&u.scratch, newSpmvScratch)
	defer u.scratch.Put(sc)
	sc.bits = mplane.Grow(sc.bits, n)
	bits := sc.bits
	inf := math.Float64bits(math.Inf(1))
	for i := range bits {
		bits[i] = inf
	}
	bits[source] = math.Float64bits(0)
	sc.claimed = mplane.Grow(sc.claimed, n)
	clear(sc.claimed)
	claimed := sc.claimed
	if len(sc.fronts) != cl.Machines() {
		sc.fronts = make([][]int32, cl.Machines())
		sc.disc = make([][]int32, cl.Machines())
	}
	for mach := range sc.fronts {
		sc.fronts[mach] = sc.fronts[mach][:0]
	}
	sc.fronts[part.Owner[source]] = append(sc.fronts[part.Owner[source]], source)
	sc.routing = mplane.Grow(sc.routing, cl.Machines())
	total := 1
	for stamp := uint32(1); total > 0; stamp++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
			local := sc.fronts[mach]
			tc := th.Count()
			if len(sc.parts) < tc {
				sc.parts = make([][]int32, tc)
			}
			for w := 0; w < tc; w++ {
				sc.parts[w] = sc.parts[w][:0]
			}
			th.ChunksIndexed(len(local), func(w, lo, hi int) {
				buf := sc.parts[w]
				for _, v := range local[lo:hi] {
					dv := math.Float64frombits(atomic.LoadUint64(&bits[v]))
					ws := m.rowWeights(v)
					for i, dst := range m.row(v) {
						nd := dv + ws[i]
						for {
							old := atomic.LoadUint64(&bits[dst])
							if nd >= math.Float64frombits(old) {
								break
							}
							if atomic.CompareAndSwapUint64(&bits[dst], old, math.Float64bits(nd)) {
								for {
									c := atomic.LoadUint32(&claimed[dst])
									if c == stamp {
										break
									}
									if atomic.CompareAndSwapUint32(&claimed[dst], c, stamp) {
										buf = append(buf, dst)
										break
									}
								}
								break
							}
						}
					}
				}
				sc.parts[w] = buf
			})
			merged := sc.disc[mach][:0]
			for _, p := range sc.parts[:tc] {
				merged = append(merged, p...)
			}
			sc.disc[mach] = merged
			out := sc.routing[:cl.Machines()]
			for i := range out {
				out[i] = 0
			}
			for _, d := range merged {
				if o := part.Owner[d]; int(o) != mach {
					out[o] += 16 // vertex id + distance
				}
			}
			for o, b := range out {
				cl.Send(mach, o, b)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		for mach := range sc.fronts {
			sc.fronts[mach] = sc.fronts[mach][:0]
		}
		total = 0
		for _, list := range sc.disc {
			for _, d := range list {
				sc.fronts[part.Owner[d]] = append(sc.fronts[part.Owner[d]], d)
				total++
			}
		}
	}
	dist := make([]float64, n)
	for i, b := range bits {
		dist[i] = math.Float64frombits(b)
	}
	return dist, nil
}
