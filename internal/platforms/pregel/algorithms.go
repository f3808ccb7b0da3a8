package pregel

import (
	"context"
	"math"
	"slices"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/granula"
	"graphalytics/internal/mplane"
)

// bfsProgram: the source starts at depth 0 and floods level numbers; every
// other vertex halts immediately and is reactivated by the first message,
// which (with the min combiner) is its BFS depth.
func bfsProgram(ctx context.Context, t *granula.Tracker, u *uploaded, source int32, combiners bool) ([]int64, error) {
	n := len(u.verts)
	depth := make([]int64, n)
	for i := range depth {
		depth[i] = algorithms.Unreachable
	}
	var combine func(a, b int64) int64
	if combiners {
		combine = func(a, b int64) int64 {
			if a < b {
				return a
			}
			return b
		}
	}
	r := newRunner[int64](u, fixedSize[int64](8), combine)
	r.tracker = t
	defer r.release()
	compute := func(w *worker[int64], v int32, msgs []int64, superstep int) {
		if superstep == 0 {
			if v == source {
				depth[v] = 0
				for _, dst := range u.verts[v].out {
					w.Send(dst, 1)
				}
			}
			w.VoteToHalt(v)
			return
		}
		if depth[v] == algorithms.Unreachable && len(msgs) > 0 {
			level := msgs[0]
			for _, m := range msgs[1:] {
				if m < level {
					level = m
				}
			}
			depth[v] = level
			for _, dst := range u.verts[v].out {
				w.Send(dst, level+1)
			}
		}
		w.VoteToHalt(v)
	}
	if err := r.run(ctx, compute); err != nil {
		return nil, err
	}
	return depth, nil
}

// prProgram: superstep 0 distributes the initial rank; supersteps 1..k
// apply the update rule using the sum combiner and the dangling-mass
// aggregator from the previous superstep; superstep k votes to halt.
func prProgram(ctx context.Context, t *granula.Tracker, u *uploaded, iterations int, damping float64, combiners bool) ([]float64, error) {
	n := len(u.verts)
	if n == 0 {
		return nil, nil
	}
	rank := make([]float64, n)
	inv := 1.0 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	var combine func(a, b float64) float64
	if combiners {
		combine = func(a, b float64) float64 { return a + b }
	}
	r := newRunner[float64](u, fixedSize[float64](8), combine)
	r.tracker = t
	defer r.release()
	compute := func(w *worker[float64], v int32, msgs []float64, superstep int) {
		if superstep > 0 {
			sum := 0.0
			//graphalint:orderfree messages arrive in the combined inbox's fixed delivery order (stable CSR scatter, machine-major)
			for _, m := range msgs {
				sum += m
			}
			rank[v] = (1-damping)*inv + damping*(sum+w.Agg()*inv)
		}
		if superstep < iterations {
			out := u.verts[v].out
			if len(out) == 0 {
				w.Aggregate(rank[v])
			} else {
				c := rank[v] / float64(len(out))
				for _, dst := range out {
					w.Send(dst, c)
				}
			}
			return // stay active for the next update
		}
		w.VoteToHalt(v)
	}
	if err := r.run(ctx, compute); err != nil {
		return nil, err
	}
	return rank, nil
}

// wccProgram floods minimum external identifiers over all edges (both
// directions for directed graphs, since components are weak).
func wccProgram(ctx context.Context, t *granula.Tracker, u *uploaded, combiners bool) ([]int64, error) {
	n := len(u.verts)
	labels := make([]int64, n)
	for v := 0; v < n; v++ {
		labels[v] = u.G.VertexID(int32(v))
	}
	var combine func(a, b int64) int64
	if combiners {
		combine = func(a, b int64) int64 {
			if a < b {
				return a
			}
			return b
		}
	}
	r := newRunner[int64](u, fixedSize[int64](8), combine)
	r.tracker = t
	defer r.release()
	sendAll := func(w *worker[int64], v int32, label int64) {
		for _, dst := range u.verts[v].out {
			w.Send(dst, label)
		}
		for _, dst := range u.verts[v].in {
			w.Send(dst, label)
		}
	}
	compute := func(w *worker[int64], v int32, msgs []int64, superstep int) {
		if superstep == 0 {
			sendAll(w, v, labels[v])
			w.VoteToHalt(v)
			return
		}
		best := labels[v]
		for _, m := range msgs {
			if m < best {
				best = m
			}
		}
		if best < labels[v] {
			labels[v] = best
			sendAll(w, v, best)
		}
		w.VoteToHalt(v)
	}
	if err := r.run(ctx, compute); err != nil {
		return nil, err
	}
	return labels, nil
}

// cdlpScratch is the pooled per-job state of the frontier CDLP program:
// the working labels, the previous superstep's label snapshot, and the
// dense-domain fold counter.
type cdlpScratch struct {
	labels []int32
	prev   []int32
	counts mplane.LabelCounts
}

// cdlpProgram runs frontier-based label propagation: messages are change
// notifications, not the full per-edge label shuffle. Superstep 0 seeds
// every vertex's label to all neighbors (both directions in directed
// graphs); from then on a vertex recomputes only when a neighbor's label
// changed — any incoming message reactivates it — gathering the full
// multiset from the prev-label snapshot (the local replica those
// notifications keep in sync; published at each barrier via onBarrier)
// and sending its own label onward only when it actually moved. Labels
// cannot be combined, so superstep 0 still costs one message per edge,
// but every later superstep's volume — and its wire bytes — shrinks to
// the changed vertices' edges, and the job ends early once a superstep
// changes nothing (no messages, all halted), which is bit-identical to
// running out the iteration budget.
//
// The fold runs on the dense label domain: labels are internal vertex
// indices counted by direct indexing (mplane.LabelCounts; the argmax is
// isomorphic to the external-ID one — see that type) and translated once
// at the end, while the 8-byte label messages keep their wire size. The
// first fold (superstep 1) sees identity labels, so it uses the closed
// form over the sorted adjacency instead of the counter
// (algorithms.CDLPInitLabel). The multiset fold is unchanged from the
// dense rounds: the argmax depends only on the multiset (the vertex's own
// label only decides the empty case), so skipped vertices would have
// recomputed exactly their current label.
func cdlpProgram(ctx context.Context, t *granula.Tracker, u *uploaded, iterations int) ([]int64, error) {
	n := len(u.verts)
	out := make([]int64, n)
	r := newRunner[int64](u, fixedSize[int64](8), nil)
	r.tracker = t
	defer r.release()
	sc := mplane.Acquire(&u.scratch, func() *cdlpScratch {
		return &cdlpScratch{}
	})
	defer u.scratch.Put(sc)
	sc.counts.EnsureDomain(n)
	sc.labels = mplane.Grow(sc.labels, n)
	sc.prev = mplane.Grow(sc.prev, n)
	labels, prev := sc.labels, sc.prev
	for v := int32(0); v < int32(n); v++ {
		labels[v] = v
	}
	copy(prev, labels[:n])
	r.onBarrier = func(int) { copy(prev, labels[:n]) }
	directed := u.G.Directed()
	sendAll := func(w *worker[int64], v int32, label int64) {
		for _, dst := range u.verts[v].out {
			w.Send(dst, label)
		}
		for _, dst := range u.verts[v].in {
			w.Send(dst, label)
		}
	}
	compute := func(w *worker[int64], v int32, msgs []int64, superstep int) {
		switch {
		case superstep == 0:
			sendAll(w, v, int64(u.G.VertexID(v)))
		case len(msgs) > 0 && superstep <= iterations:
			var nl int32
			if superstep == 1 {
				nl = algorithms.CDLPInitLabel(v, u.verts[v].out, u.verts[v].in, directed)
			} else {
				for _, dst := range u.verts[v].out {
					sc.counts.Add(prev[dst])
				}
				for _, dst := range u.verts[v].in {
					sc.counts.Add(prev[dst])
				}
				nl = sc.counts.BestAndReset(prev[v])
			}
			if nl != labels[v] {
				labels[v] = nl
				if superstep < iterations {
					sendAll(w, v, int64(u.G.VertexID(nl)))
				}
			}
		}
		w.VoteToHalt(v)
	}
	if err := r.run(ctx, compute); err != nil {
		return nil, err
	}
	for v := int32(0); v < int32(n); v++ {
		out[v] = u.G.VertexID(labels[v])
	}
	return out, nil
}

// lccScratch holds one LCC mark array per simulated thread, pooled on
// the upload so repeated LCC jobs reuse them.
type lccScratch struct {
	marks []algorithms.LCCMarks
}

// lccProgram: superstep 0 sends every vertex's sorted out-adjacency to all
// neighbors; superstep 1 counts, in each received list, the entries of the
// local neighborhood, which the worker has stamped into its pooled mark
// array (algorithms.LCCMarks). Neighbor-list messages make this the
// engine's most memory-hungry job, matching the paper's LCC failures on
// message-passing platforms.
func lccProgram(ctx context.Context, t *granula.Tracker, u *uploaded) ([]float64, error) {
	n := len(u.verts)
	out := make([]float64, n)
	hoods := make([][]int32, n)
	for v := 0; v < n; v++ {
		hoods[v] = neighborhoodOf(u, int32(v))
	}
	sc := mplane.Acquire(&u.scratch, func() *lccScratch { return &lccScratch{} })
	defer u.scratch.Put(sc)
	sc.marks = algorithms.ResetLCCMarks(sc.marks, u.Cl.Threads(), n)
	sizeOf := func(list []int32) int64 { return int64(len(list))*4 + 4 }
	r := newRunner[[]int32](u, sizeOf, nil)
	r.tracker = t
	defer r.release()
	compute := func(w *worker[[]int32], v int32, msgs [][]int32, superstep int) {
		if superstep == 0 {
			adj := u.verts[v].out
			for _, dst := range hoods[v] {
				w.Send(dst, adj)
			}
			w.VoteToHalt(v)
			return
		}
		hood := hoods[v]
		d := len(hood)
		if d >= 2 {
			marks := sc.marks[w.slot]
			marks.Stamp(hood, v)
			arcs := 0
			for _, list := range msgs {
				arcs += marks.Count(list, v)
			}
			out[v] = float64(arcs) / (float64(d) * float64(d-1))
		}
		w.VoteToHalt(v)
	}
	if err := r.run(ctx, compute); err != nil {
		return nil, err
	}
	return out, nil
}

// neighborhoodOf returns the sorted union of in- and out-neighbors of v,
// excluding v.
func neighborhoodOf(u *uploaded, v int32) []int32 {
	vd := u.verts[v]
	if vd.in == nil {
		return vd.out
	}
	merged := make([]int32, 0, len(vd.out)+len(vd.in))
	merged = append(merged, vd.out...)
	merged = append(merged, vd.in...)
	slices.Sort(merged)
	uniq := merged[:0]
	for i, x := range merged {
		if x == v {
			continue
		}
		if len(uniq) > 0 && uniq[len(uniq)-1] == x {
			continue
		}
		uniq = append(uniq, merged[i])
	}
	return uniq
}

// ssspProgram is the classic Pregel SSSP: distance relaxations flow as
// messages with a min combiner.
func ssspProgram(ctx context.Context, t *granula.Tracker, u *uploaded, source int32, combiners bool) ([]float64, error) {
	n := len(u.verts)
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	var combine func(a, b float64) float64
	if combiners {
		combine = func(a, b float64) float64 { return math.Min(a, b) }
	}
	r := newRunner[float64](u, fixedSize[float64](8), combine)
	r.tracker = t
	defer r.release()
	relax := func(w *worker[float64], v int32, d float64) {
		vd := u.verts[v]
		for i, dst := range vd.out {
			w.Send(dst, d+vd.w[i])
		}
	}
	compute := func(w *worker[float64], v int32, msgs []float64, superstep int) {
		if superstep == 0 {
			if v == source {
				dist[v] = 0
				relax(w, v, 0)
			}
			w.VoteToHalt(v)
			return
		}
		best := math.Inf(1)
		for _, m := range msgs {
			if m < best {
				best = m
			}
		}
		if best < dist[v] {
			dist[v] = best
			relax(w, v, best)
		}
		w.VoteToHalt(v)
	}
	if err := r.run(ctx, compute); err != nil {
		return nil, err
	}
	return dist, nil
}
