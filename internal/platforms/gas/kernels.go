package gas

import (
	"context"
	"math"
	"slices"
	"sync/atomic"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/mplane"
	"graphalytics/internal/platform"
)

// gasScratch is the engine's job-lifetime working state for CDLP and
// SSSP: the flat label buffer laid out by the upload's static CSR
// offsets, the per-vertex write cursors, the dense label histogram, the
// CDLP frontier flags, and the SSSP relaxation plane (distance bits,
// claim stamps, per-thread and per-machine discovery lists), plus the
// per-thread LCC mark arrays. Checked out of the uploaded state's pool per
// Execute, so steady-state iterations allocate nothing.
type gasScratch struct {
	labelBuf []int32 // gathered neighbor labels (internal-index domain)
	labels   []int32 // CDLP working labels
	pos      []int32
	counts   mplane.LabelCounts
	dirty    []bool
	changed  []bool
	// Per-round thread partials, pooled so rounds allocate nothing.
	wireParts  []int64
	bcastParts []int64
	countParts []int

	bits    []uint64  // sssp tentative distances (float64 bits)
	claimed []uint32  // per-round discovery claims
	parts   [][]int32 // per-thread relax outputs, reused machine to machine
	disc    [][]int32 // per-machine discovered lists
	front   []int32   // global frontier

	marks []algorithms.LCCMarks // LCC: one mark array per simulated thread
}

func acquireScratch(u *uploaded) *gasScratch {
	return mplane.Acquire(&u.scratch, func() *gasScratch {
		return &gasScratch{}
	})
}

// prGAS runs PageRank as dense synchronous GAS iterations: the gather
// round folds contrib over each machine's destination groups, the apply
// round updates mastered vertices and recomputes contributions for the
// broadcast back to mirrors.
func prGAS(ctx context.Context, u *uploaded, iterations int, damping float64) ([]float64, error) {
	g, cl := u.G, u.Cl
	n := g.NumVertices()
	if n == 0 {
		return nil, nil
	}
	inv := 1.0 / float64(n)
	rank := make([]float64, n)
	contrib := make([]float64, n)
	acc := make([]float64, n)
	var dangling float64
	//graphalint:orderfree sequential single pass in vertex index order
	for v := int32(0); v < int32(n); v++ {
		rank[v] = inv
		if deg := g.OutDegree(v); deg > 0 {
			contrib[v] = inv / float64(deg)
		} else {
			dangling += inv
		}
	}
	danglingParts := make([]float64, cl.Machines())
	for it := 0; it < iterations; it++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		// Gather: fold local arcs by destination group.
		if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
			ma := u.local[mach]
			th.Chunks(len(ma.dsts), func(lo, hi int) {
				//graphalint:orderfree arc fold follows the materialized doff order; machines add their group sums sequentially in machine order (RunRound contract)
				for i := lo; i < hi; i++ {
					dst := ma.dsts[i]
					sum := 0.0
					for k := ma.doff[i]; k < ma.doff[i+1]; k++ {
						sum += contrib[ma.arcByDst(k).Src]
					}
					acc[dst] += sum // sequential machines: no cross-machine race
				}
			})
			mirrorGatherBytes(u, mach, 8)
			return nil
		}); err != nil {
			return nil, err
		}
		base := (1-damping)*inv + damping*dangling*inv
		// Apply + scatter: masters update their vertices, recompute
		// contributions and dangling mass, and broadcast to mirrors.
		if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
			verts := u.masterVerts[mach]
			parts := make([]float64, th.Count())
			th.ChunksIndexed(len(verts), func(w, lo, hi int) {
				var d float64
				//graphalint:orderfree per-chunk fold in vertex order over a fixed [lo, hi) chunk
				for _, v := range verts[lo:hi] {
					nv := base + damping*acc[v]
					rank[v] = nv
					acc[v] = 0
					if deg := g.OutDegree(v); deg > 0 {
						contrib[v] = nv / float64(deg)
					} else {
						d += nv
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
			cl.Send(mach, (mach+1)%cl.Machines(), u.bcastCount[mach]*8)
			return nil
		}); err != nil {
			return nil, err
		}
		dangling = 0
		//graphalint:orderfree partials folded in machine-index order; machine count is deployment config, not host parallelism
		for _, d := range danglingParts {
			dangling += d
		}
	}
	return rank, nil
}

// mirrorGatherBytes accounts the per-iteration mirror-to-master partials
// for dense gathers.
//
//graphalint:noalloc
func mirrorGatherBytes(u *uploaded, mach int, valueBytes int64) {
	u.Cl.Send(mach, (mach+1)%u.Cl.Machines(), u.mirrorCount[mach]*valueBytes)
}

// bfsGAS expands a global frontier over each machine's local arcs; newly
// discovered vertices are synchronized master-to-mirror before the next
// level.
func bfsGAS(ctx context.Context, u *uploaded, source int32) ([]int64, error) {
	g, cl := u.G, u.Cl
	n := g.NumVertices()
	depth := make([]int64, n)
	for i := range depth {
		depth[i] = algorithms.Unreachable
	}
	depth[source] = 0
	frontier := []int32{source}
	for level := int64(1); len(frontier) > 0; level++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		discovered := make([][]int32, cl.Machines())
		if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
			ma := u.local[mach]
			parts := make([][]int32, th.Count())
			th.ChunksIndexed(len(frontier), func(w, lo, hi int) {
				var buf []int32
				for _, v := range frontier[lo:hi] {
					arcs, _ := ma.arcsOf(v)
					for _, a := range arcs {
						if atomic.CompareAndSwapInt64(&depth[a.Dst], algorithms.Unreachable, level) {
							buf = append(buf, a.Dst)
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
			var toMasters, bcast int64
			for _, d := range merged {
				if int(u.part.Master[d]) != mach {
					toMasters += 12
				}
				bcast += int64(u.replicaCount[d]-1) * 12
			}
			cl.Send(mach, (mach+1)%cl.Machines(), toMasters+bcast)
			return nil
		}); err != nil {
			return nil, err
		}
		frontier = frontier[:0]
		for _, list := range discovered {
			frontier = append(frontier, list...)
		}
	}
	return depth, nil
}

// wccGAS iterates a dense min-label gather over both arc directions until
// a fixpoint.
func wccGAS(ctx context.Context, u *uploaded) ([]int64, error) {
	g, cl := u.G, u.Cl
	n := g.NumVertices()
	const maxLabel = int32(math.MaxInt32)
	labels := make([]int32, n)
	acc := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i)
		acc[i] = maxLabel
	}
	changed := make([]bool, cl.Machines())
	for {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		// Gather: min over in-arcs (by-dst groups) and, because components
		// are weak, min over out-arcs (by-src groups).
		if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
			ma := u.local[mach]
			th.Chunks(len(ma.dsts), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					dst := ma.dsts[i]
					best := acc[dst]
					for k := ma.doff[i]; k < ma.doff[i+1]; k++ {
						if l := labels[ma.arcByDst(k).Src]; l < best {
							best = l
						}
					}
					acc[dst] = best
				}
			})
			if g.Directed() {
				th.Chunks(len(ma.srcs), func(lo, hi int) {
					for i := lo; i < hi; i++ {
						src := ma.srcs[i]
						best := acc[src]
						for _, a := range ma.arcs[ma.off[i]:ma.off[i+1]] {
							if l := labels[a.Dst]; l < best {
								best = l
							}
						}
						acc[src] = best
					}
				})
			}
			mirrorGatherBytes(u, mach, 4)
			return nil
		}); err != nil {
			return nil, err
		}
		// Apply on masters; broadcast changed labels.
		if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
			verts := u.masterVerts[mach]
			parts := make([]bool, th.Count())
			var bcast int64
			bcastParts := make([]int64, th.Count())
			th.ChunksIndexed(len(verts), func(w, lo, hi int) {
				ch := false
				var bc int64
				for _, v := range verts[lo:hi] {
					if acc[v] < labels[v] {
						labels[v] = acc[v]
						ch = true
						bc += int64(u.replicaCount[v]-1) * 8
					}
					acc[v] = maxLabel
				}
				parts[w] = ch
				bcastParts[w] = bc
			})
			ch := false
			for _, p := range parts {
				ch = ch || p
			}
			for _, b := range bcastParts {
				bcast += b
			}
			changed[mach] = ch
			cl.Send(mach, (mach+1)%cl.Machines(), bcast)
			return nil
		}); err != nil {
			return nil, err
		}
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
		out[v] = g.VertexID(labels[v])
	}
	return out, nil
}

// cdlpGAS gathers neighbor labels (labels cannot be pre-combined) into
// the flat label buffer laid out by the upload's static CSR offsets, then
// applies the deterministic mode on masters with the dense-domain counter
// (labels are internal vertex indices throughout, translated to external
// IDs once at the end — the argmax is isomorphic, see mplane.LabelCounts;
// wire bytes still model 8-byte external labels). Per-vertex write
// cursors replace the seed's per-vertex append lists; the apply phase
// rewinds each master's cursor for the next iteration. On undirected
// graphs the first apply needs no counter at all: identity labels make
// every gathered label distinct, so the mode is the minimum of the
// segment.
//
// The iterations are frontier-based: after the first, only vertices whose
// neighborhood changed last round are gathered and applied — a skipped
// vertex would fold the same multiset and land on the same label (the
// argmax depends only on the multiset) — so both the gather traffic and
// the master broadcast shrink to the changed set (mirror updates are
// charged per changed replica, as in wccGAS, instead of the dense
// bcastCount), and the loop ends early at a fixpoint. The dirty flags are
// rebuilt between rounds from the changed set by rescanning the local arc
// groups — uncharged harness bookkeeping, like pregel's active-list
// rebuild; the modeled frontier-maintenance cost is the gated
// gather/broadcast traffic itself. While the changed set still blankets
// the graph the rebuild is skipped and the next round runs dense
// (algorithms.CDLPScatterWorthwhile; over-marking is exact).
func cdlpGAS(ctx context.Context, u *uploaded, iterations int) ([]int64, error) {
	g, cl := u.G, u.Cl
	n := g.NumVertices()
	sc := acquireScratch(u)
	defer u.scratch.Put(sc)
	out := make([]int64, n)
	if n == 0 {
		return out, nil
	}
	sc.counts.EnsureDomain(n)
	sc.labels = mplane.Grow(sc.labels, n)
	labels := sc.labels
	for v := int32(0); v < int32(n); v++ {
		labels[v] = v
	}
	sc.labelBuf = mplane.Grow(sc.labelBuf, u.labelTotal)
	sc.pos = mplane.Grow(sc.pos, n)
	copy(sc.pos, u.labelOff[:n])
	sc.dirty = mplane.Grow(sc.dirty, n)
	sc.changed = mplane.Grow(sc.changed, n)
	labelBuf, pos := sc.labelBuf, sc.pos
	dirty, changed := sc.dirty, sc.changed
	dense := true // round zero treats every vertex as dirty
	for it := 0; it < iterations; it++ {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		first := it == 0
		if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
			ma := u.local[mach]
			var wire int64
			sc.wireParts = mplane.Grow(sc.wireParts, th.Count())
			wireParts := sc.wireParts[:th.Count()]
			clear(wireParts)
			th.ChunksIndexed(len(ma.dsts), func(w, lo, hi int) {
				var bytes int64
				for i := lo; i < hi; i++ {
					dst := ma.dsts[i]
					if !dense && !dirty[dst] {
						continue
					}
					p := pos[dst]
					for _, src := range ma.srcByDst[ma.doff[i]:ma.doff[i+1]] {
						labelBuf[p] = labels[src]
						p++
					}
					pos[dst] = p
					if int(u.part.Master[dst]) != mach {
						bytes += int64(ma.doff[i+1]-ma.doff[i]) * 8
					}
				}
				wireParts[w] = bytes
			})
			if g.Directed() {
				// Out-neighbor labels also count in directed graphs.
				th.Chunks(len(ma.srcs), func(lo, hi int) {
					for i := lo; i < hi; i++ {
						src := ma.srcs[i]
						if !dense && !dirty[src] {
							continue
						}
						p := pos[src]
						for _, a := range ma.arcs[ma.off[i]:ma.off[i+1]] {
							labelBuf[p] = labels[a.Dst]
							p++
						}
						pos[src] = p
					}
				})
			}
			for _, b := range wireParts {
				wire += b
			}
			cl.Send(mach, (mach+1)%cl.Machines(), wire)
			return nil
		}); err != nil {
			return nil, err
		}
		total := 0
		if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
			verts := u.masterVerts[mach]
			var bcast int64
			sc.bcastParts = mplane.Grow(sc.bcastParts, th.Count())
			sc.countParts = mplane.Grow(sc.countParts, th.Count())
			bcastParts := sc.bcastParts[:th.Count()]
			countParts := sc.countParts[:th.Count()]
			clear(bcastParts)
			clear(countParts)
			th.ChunksIndexed(len(verts), func(w, lo, hi int) {
				var bc int64
				cnt := 0
				for _, v := range verts[lo:hi] {
					if !dense && !dirty[v] {
						changed[v] = false
						continue
					}
					changed[v] = false
					if seg := labelBuf[u.labelOff[v]:pos[v]]; len(seg) > 0 {
						var nl int32
						if first && !g.Directed() {
							// Identity labels are all distinct, so the
							// mode is the segment minimum.
							nl = seg[0]
							for _, l := range seg[1:] {
								if l < nl {
									nl = l
								}
							}
						} else {
							for _, l := range seg {
								sc.counts.Add(l)
							}
							nl = sc.counts.BestAndReset(labels[v])
						}
						if nl != labels[v] {
							labels[v] = nl
							changed[v] = true
							cnt++
							bc += int64(u.replicaCount[v]-1) * 8
						}
						pos[v] = u.labelOff[v]
					}
				}
				bcastParts[w] = bc
				countParts[w] = cnt
			})
			for _, b := range bcastParts {
				bcast += b
			}
			for _, c := range countParts {
				total += c
			}
			cl.Send(mach, (mach+1)%cl.Machines(), bcast)
			return nil
		}); err != nil {
			return nil, err
		}
		if total == 0 {
			break
		}
		dense = !algorithms.CDLPScatterWorthwhile(total, n)
		if !dense && it+1 < iterations {
			// Uncharged frontier rebuild: a vertex is dirty next round iff
			// one of the endpoints its gather reads from changed this round.
			clear(dirty)
			for m := 0; m < cl.Machines(); m++ {
				ma := u.local[m]
				for i, dst := range ma.dsts {
					if dirty[dst] {
						continue
					}
					for _, src := range ma.srcByDst[ma.doff[i]:ma.doff[i+1]] {
						if changed[src] {
							dirty[dst] = true
							break
						}
					}
				}
				if g.Directed() {
					for i, src := range ma.srcs {
						if dirty[src] {
							continue
						}
						for _, a := range ma.arcs[ma.off[i]:ma.off[i+1]] {
							if changed[a.Dst] {
								dirty[src] = true
								break
							}
						}
					}
				}
			}
		}
	}
	for v := int32(0); v < int32(n); v++ {
		out[v] = g.VertexID(labels[v])
	}
	return out, nil
}

// lccGAS builds each vertex's neighborhood from the local arcs (gather),
// then masters count the arcs among their neighbors (the shared
// algorithms.LCCMarks step), accounting remote adjacency fetches as
// traffic from the owning replicas.
func lccGAS(ctx context.Context, u *uploaded) ([]float64, error) {
	g, cl := u.G, u.Cl
	n := g.NumVertices()
	hoods := make([][]int32, n)
	// Gather round: collect neighbor candidates from both arc endpoints.
	if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
		ma := u.local[mach]
		th.Chunks(len(ma.dsts), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				dst := ma.dsts[i]
				for k := ma.doff[i]; k < ma.doff[i+1]; k++ {
					hoods[dst] = append(hoods[dst], ma.arcByDst(k).Src)
				}
			}
		})
		if g.Directed() {
			th.Chunks(len(ma.srcs), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					src := ma.srcs[i]
					for _, a := range ma.arcs[ma.off[i]:ma.off[i+1]] {
						hoods[src] = append(hoods[src], a.Dst)
					}
				}
			})
		}
		mirrorGatherBytes(u, mach, 8)
		return nil
	}); err != nil {
		return nil, err
	}
	// Normalize round: sort and deduplicate neighborhoods on masters.
	if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
		verts := u.masterVerts[mach]
		th.Chunks(len(verts), func(lo, hi int) {
			for _, v := range verts[lo:hi] {
				h := hoods[v]
				slices.Sort(h)
				uniq := h[:0]
				for k, x := range h {
					if x == v {
						continue
					}
					if len(uniq) > 0 && uniq[len(uniq)-1] == x {
						continue
					}
					uniq = append(uniq, h[k])
				}
				hoods[v] = uniq
			}
		})
		return nil
	}); err != nil {
		return nil, err
	}
	if err := platform.CheckContext(ctx); err != nil {
		return nil, err
	}
	// Intersect round: count arcs among neighbors.
	sc := acquireScratch(u)
	defer u.scratch.Put(sc)
	sc.marks = algorithms.ResetLCCMarks(sc.marks, cl.Threads(), n)
	out := make([]float64, n)
	if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
		verts := u.masterVerts[mach]
		fetchParts := make([]int64, th.Count())
		th.ChunksIndexed(len(verts), func(w, lo, hi int) {
			marks := sc.marks[w]
			var fetch int64
			for _, v := range verts[lo:hi] {
				hood := hoods[v]
				d := len(hood)
				if d < 2 {
					continue
				}
				marks.Stamp(hood, v)
				arcs := 0
				for _, nb := range hood {
					if int(u.part.Master[nb]) != mach {
						fetch += int64(g.OutDegree(nb)) * 4
					}
					arcs += marks.Count(g.OutNeighbors(nb), v)
				}
				out[v] = float64(arcs) / (float64(d) * float64(d-1))
			}
			fetchParts[w] = fetch
		})
		var fetch int64
		for _, f := range fetchParts {
			fetch += f
		}
		cl.Send((mach+1)%cl.Machines(), mach, fetch)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// ssspGAS relaxes the out-arcs of frontier vertices with an atomic min on
// the distance bits, synchronizing discoveries like bfsGAS. All working
// state — distance bits, per-round claim stamps (replacing the seed's
// clear-after-merge flags), per-thread relax outputs and per-machine
// discovery lists — comes from the pooled scratch, so steady-state runs
// allocate only the output array.
func ssspGAS(ctx context.Context, u *uploaded, source int32) ([]float64, error) {
	g, cl := u.G, u.Cl
	n := g.NumVertices()
	sc := acquireScratch(u)
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
	tc := cl.Threads()
	if len(sc.parts) < tc {
		sc.parts = make([][]int32, tc)
	}
	if len(sc.disc) != cl.Machines() {
		sc.disc = make([][]int32, cl.Machines())
	}
	frontier := append(sc.front[:0], source)
	stamp := uint32(0)
	for len(frontier) > 0 {
		if err := platform.CheckContext(ctx); err != nil {
			return nil, err
		}
		stamp++
		if err := cl.RunRound(func(mach int, th *cluster.Threads) error {
			ma := u.local[mach]
			parts := sc.parts
			for w := range parts {
				parts[w] = parts[w][:0]
			}
			th.ChunksIndexed(len(frontier), func(w, lo, hi int) {
				buf := parts[w][:0]
				for _, v := range frontier[lo:hi] {
					arcs, ws := ma.arcsOf(v)
					dv := math.Float64frombits(atomic.LoadUint64(&bits[v]))
					for i, a := range arcs {
						nd := dv + ws[i]
						for {
							old := atomic.LoadUint64(&bits[a.Dst])
							if nd >= math.Float64frombits(old) {
								break
							}
							if atomic.CompareAndSwapUint64(&bits[a.Dst], old, math.Float64bits(nd)) {
								for {
									c := atomic.LoadUint32(&claimed[a.Dst])
									if c == stamp {
										break
									}
									if atomic.CompareAndSwapUint32(&claimed[a.Dst], c, stamp) {
										buf = append(buf, a.Dst)
										break
									}
								}
								break
							}
						}
					}
				}
				parts[w] = buf
			})
			// Per-machine merge copies out of the per-thread buffers, which
			// the next (sequential) machine body reuses.
			merged := sc.disc[mach][:0]
			for _, p := range parts[:th.Count()] {
				merged = append(merged, p...)
			}
			sc.disc[mach] = merged
			var wire int64
			for _, d := range merged {
				if int(u.part.Master[d]) != mach {
					wire += 16
				}
				wire += int64(u.replicaCount[d]-1) * 16
			}
			cl.Send(mach, (mach+1)%cl.Machines(), wire)
			return nil
		}); err != nil {
			return nil, err
		}
		frontier = frontier[:0]
		for _, list := range sc.disc {
			frontier = append(frontier, list...)
		}
	}
	sc.front = frontier
	dist := make([]float64, n)
	for i, b := range bits {
		dist[i] = math.Float64frombits(b)
	}
	return dist, nil
}
