package pregel

import (
	"context"
	"fmt"

	"graphalytics/internal/cluster"
	"graphalytics/internal/granula"
	"graphalytics/internal/mplane"
	"graphalytics/internal/platform"
)

// runner is the generic BSP superstep loop over message type T. All of
// its state is job-lifetime scratch from the mplane runtime: staging
// buffers, the per-vertex inbox, halt votes, frontier (active) lists and
// the float64 aggregator (used by PageRank for the dangling mass) are
// allocated once, reset each superstep, and recycled across Execute calls
// through the uploaded state's scratch pool. A steady-state superstep
// allocates nothing.
//
// Messages take one of two delivery paths, both bit-identical to
// append-based delivery:
//
//   - with a combiner, each vertex owns a single generation-stamped slot
//     (mplane.Slots) folded left to right in delivery order — the
//     combined inbox reuses its one slot no matter how many messages a
//     superstep delivers to the vertex;
//   - without one, staged messages are counted and scattered into a
//     CSR-style flat inbox (mplane.Inbox) by a stable counting sort, so
//     each vertex reads its messages in exactly the order sequential
//     appends would have produced.
type runner[T any] struct {
	u       *uploaded
	msgSize func(T) int64  // serialized wire size of one message
	combine func(a, b T) T // nil disables the message combiner
	// tracker, when set, records one Granula sub-phase per superstep with
	// active-vertex and message counts — the fine-grained performance
	// model the Granula modeler defines for vertex-centric platforms.
	tracker *granula.Tracker

	inbox     mplane.Inbox[T] // combiner-less CSR inbox (current round)
	slots     *mplane.Slots[T]
	slotsNext *mplane.Slots[T] // combined inbox being written this round
	halted    []bool
	active    [][]int32      // per-machine frontier lists, reset per superstep
	workers   [][]*worker[T] // [machine][thread slot], reset per superstep
	wire      []int64        // per-destination-machine byte staging
	agg       float64        // aggregated value from the previous superstep
	aggNext   float64
	// onBarrier, when set, runs once per superstep in the uncharged
	// inter-superstep region — after message delivery has been swapped in,
	// before the active lists are rebuilt. Programs that keep a replica
	// array in sync with change-notification messages (frontier CDLP's
	// prev-label snapshot) publish it here, the same place the harness
	// already does its own uncharged bookkeeping.
	onBarrier func(superstep int)
}

// worker is the per-thread compute context handed to vertex programs; it
// stages outgoing messages, halt votes and aggregator contributions so
// that no locks are taken inside the compute loop.
type worker[T any] struct {
	r     *runner[T]
	slot  int // thread slot within the machine, in [0, cluster Threads)
	stage mplane.Stage[T]
	halts []int32
	agg   float64
}

// Send queues a message to dst for the next superstep.
//
//graphalint:noalloc
func (w *worker[T]) Send(dst int32, msg T) { w.stage.Send(dst, msg) }

// VoteToHalt marks the vertex inactive until a message reactivates it.
//
//graphalint:noalloc the halt list reuses its capacity across supersteps
func (w *worker[T]) VoteToHalt(v int32) { w.halts = append(w.halts, v) }

// Aggregate adds x to the global aggregator readable in the next
// superstep.
//
//graphalint:noalloc
func (w *worker[T]) Aggregate(x float64) { w.agg += x }

// Agg returns the aggregator value accumulated during the previous
// superstep.
func (w *worker[T]) Agg() float64 { return w.r.agg }

// reset clears the worker's per-superstep staging, keeping capacity.
//
//graphalint:noalloc
func (w *worker[T]) reset() {
	w.stage.Reset()
	w.halts = w.halts[:0]
	w.agg = 0
}

// newRunner checks a runner for message type T out of the upload's
// scratch pool, or builds one. Callers hand it back via release so the
// next job on this upload starts with warm buffers.
func newRunner[T any](u *uploaded, msgSize func(T) int64, combine func(a, b T) T) *runner[T] {
	r := mplane.Acquire(&u.scratch, func() *runner[T] {
		return &runner[T]{
			u:         u,
			slots:     &mplane.Slots[T]{},
			slotsNext: &mplane.Slots[T]{},
		}
	})
	n := len(u.verts)
	cl := u.Cl
	r.u = u
	r.msgSize = msgSize
	r.combine = combine
	r.tracker = nil
	r.halted = mplane.GrowZero(r.halted, n)
	r.wire = mplane.Grow(r.wire, cl.Machines())
	if len(r.active) != cl.Machines() {
		r.active = make([][]int32, cl.Machines())
	}
	if len(r.workers) != cl.Machines() {
		r.workers = make([][]*worker[T], cl.Machines())
	}
	for m := range r.workers {
		if len(r.workers[m]) != cl.Threads() {
			r.workers[m] = make([]*worker[T], cl.Threads())
			for i := range r.workers[m] {
				r.workers[m][i] = &worker[T]{r: r, slot: i}
			}
		}
	}
	r.agg, r.aggNext = 0, 0
	r.onBarrier = nil
	return r
}

// release returns the runner's buffers to the upload's scratch pool.
func (r *runner[T]) release() {
	r.tracker = nil
	r.u.scratch.Put(r)
}

// msgs returns the messages delivered to v for the current superstep.
//
//graphalint:noalloc
func (r *runner[T]) msgs(v int32) []T {
	if r.combine != nil {
		return r.slots.At(v)
	}
	return r.inbox.At(v)
}

// hasMsgs reports whether v received any message in the last delivery.
//
//graphalint:noalloc
func (r *runner[T]) hasMsgs(v int32) bool {
	if r.combine != nil {
		return r.slots.Has(v)
	}
	return len(r.inbox.At(v)) > 0
}

// run executes supersteps until every vertex has halted and no messages
// are in flight. compute is called for every active vertex with the
// messages delivered to it.
func (r *runner[T]) run(ctx context.Context, compute func(w *worker[T], v int32, msgs []T, superstep int)) error {
	cl := r.u.Cl
	part := r.u.part
	n := len(r.u.verts)
	superstep := 0
	// Superstep 0 has an empty inbox on both paths.
	r.slots.Begin(n)
	r.inbox.Begin(n)
	r.inbox.Seal()
	// Active vertex lists per machine; initially all vertices.
	for m := range r.active {
		r.active[m] = append(r.active[m][:0], part.Verts[m]...)
	}
	total := n
	for total > 0 {
		if err := platform.CheckContext(ctx); err != nil {
			return err
		}
		if r.tracker != nil {
			r.tracker.Begin(fmt.Sprintf("Superstep-%d", superstep))
			r.tracker.Annotate("active_vertices", fmt.Sprint(total))
		}
		// Open the next round's delivery structures. The current round's
		// inbox stays readable: Slots double-buffer, and the CSR inbox's
		// counters are separate from its sealed offsets.
		if r.combine != nil {
			r.slotsNext.Begin(n)
		} else {
			r.inbox.Begin(n)
		}
		var messages int64
		err := cl.RunRound(func(mach int, th *cluster.Threads) error {
			verts := r.active[mach]
			workers := r.workers[mach]
			for _, w := range workers {
				w.reset()
			}
			th.ChunksIndexed(len(verts), func(wi, lo, hi int) {
				w := workers[wi]
				for _, v := range verts[lo:hi] {
					compute(w, v, r.msgs(v), superstep)
				}
			})
			// Deliver staged messages; machines run sequentially, so the
			// shared slots / counters are written race-free, in machine-
			// major, worker-major, staging order — the same order the
			// seed's sequential appends delivered in.
			wire := r.wire[:cl.Machines()]
			for i := range wire {
				wire[i] = 0
			}
			for _, w := range workers {
				//graphalint:orderfree aggregator folded in worker-index order (see the delivery-order comment above)
				r.aggNext += w.agg
				for i, dst := range w.stage.Dst {
					if o := int(part.Owner[dst]); o != mach {
						wire[o] += r.msgSize(w.stage.Msg[i]) + 4 // payload + recipient id
					}
					if r.combine != nil {
						r.slotsNext.Put(dst, w.stage.Msg[i], r.combine)
					}
				}
				if r.combine == nil {
					r.inbox.Count(&w.stage)
				}
				for _, v := range w.halts {
					r.halted[v] = true
				}
				messages += int64(w.stage.Len())
			}
			for o := 0; o < cl.Machines(); o++ {
				cl.Send(mach, o, wire[o])
			}
			return nil
		})
		if r.tracker != nil {
			r.tracker.Annotate("messages_sent", fmt.Sprint(messages))
			r.tracker.End()
		}
		if err != nil {
			return err
		}
		// Barrier: finish delivery, swap inboxes, reactivate message
		// recipients, rebuild the active lists. The CSR scatter is global
		// (it needs every machine's counts), so it runs as measured
		// barrier work rather than inside any one machine's slice of the
		// round.
		if r.combine != nil {
			r.slots, r.slotsNext = r.slotsNext, r.slots
		} else {
			cl.RunBarrier(func() {
				r.inbox.Seal()
				for m := range r.workers {
					for _, w := range r.workers[m] {
						r.inbox.Scatter(&w.stage)
					}
				}
			})
		}
		r.agg, r.aggNext = r.aggNext, 0
		if r.onBarrier != nil {
			r.onBarrier(superstep)
		}
		superstep++
		total = 0
		for m := range r.active {
			r.active[m] = r.active[m][:0]
			for _, v := range part.Verts[m] {
				if r.hasMsgs(v) {
					r.halted[v] = false
				}
				if !r.halted[v] {
					r.active[m] = append(r.active[m], v)
					total++
				}
			}
		}
	}
	return nil
}

// fixedSize returns a message-size function for constant-width messages.
func fixedSize[T any](bytes int64) func(T) int64 {
	return func(T) int64 { return bytes }
}
