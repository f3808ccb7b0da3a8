package platform

import (
	"context"
	"fmt"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/cluster"
	"graphalytics/internal/granula"
)

// Hooks are the engine-specific parts of a job. Every engine implements
// Platform.Execute by passing its hooks to Execute, which owns the rest
// of the driver contract, so Tproc is measured between the same phase
// boundaries on every engine. U is the engine's upload handle type.
type Hooks[U Uploaded] struct {
	// StateBytes is the working state algorithm a registers on every
	// machine of u's deployment during Setup; it is released when the
	// job ends.
	StateBytes func(u U, a algorithms.Algorithm) int64
	// Setup, if set, annotates the Setup phase.
	Setup func(j *Job[U])
	// Run computes the algorithm's output inside ProcessGraph, under the
	// job's context. It may nest sub-phases under the open ProcessGraph
	// phase.
	Run func(ctx context.Context, j *Job[U]) (*algorithms.Output, error)
	// Process, if set, annotates ProcessGraph after Run succeeds.
	Process func(j *Job[U])
}

// Job is one algorithm run on an uploaded graph, as the hooks see it.
type Job[U Uploaded] struct {
	Upload    U
	Algorithm algorithms.Algorithm
	// Params carries the algorithm's defaults for unset fields.
	Params algorithms.Params
	// Source is the internal index of Params.Source; it is resolved only
	// for the algorithms that take a source (BFS and SSSP).
	Source int32
	// Tracker records the job's Granula archive; the phase it has open is
	// the one the current hook runs in.
	Tracker *granula.Tracker
}

// Annotate attaches key=value to the Granula phase the job has open.
func (j *Job[U]) Annotate(key string, value any) { j.Tracker.Annotate(key, fmt.Sprint(value)) }

// Ints wraps an integer kernel result as the job's output.
func (j *Job[U]) Ints(vals []int64, err error) (*algorithms.Output, error) {
	if err != nil {
		return nil, err
	}
	return &algorithms.Output{Algorithm: j.Algorithm, Int: vals}, nil
}

// Floats wraps a floating-point kernel result as the job's output.
func (j *Job[U]) Floats(vals []float64, err error) (*algorithms.Output, error) {
	if err != nil {
		return nil, err
	}
	return &algorithms.Output{Algorithm: j.Algorithm, Float: vals}, nil
}

// Execute is the Platform.Execute template shared by every engine. It
// checks that p supports a and that up is p's own handle, applies the
// parameter defaults and resolves the source vertex, then records the
// job's Granula archive:
//
//   - Setup registers StateBytes on every machine, failing with an error
//     wrapping cluster.ErrOutOfMemory when a machine's budget is
//     exhausted;
//   - ProcessGraph runs the kernel; its modeled duration is the
//     cluster's simulated time, which is the job's Tproc;
//   - Offload is empty, as every engine writes its output straight into
//     harness-visible arrays.
func Execute[U Uploaded](ctx context.Context, p Platform, up Uploaded, a algorithms.Algorithm, params algorithms.Params, h Hooks[U]) (*Result, error) {
	if !p.Supports(a) {
		return nil, fmt.Errorf("%w: %s on %s", ErrUnsupported, a, p.Name())
	}
	u, ok := up.(U)
	if !ok {
		return nil, fmt.Errorf("%s: foreign upload handle %T", p.Name(), up)
	}
	g, cl := u.Graph(), u.Cluster()
	j := &Job[U]{Upload: u, Algorithm: a, Params: params.WithDefaults(a)}
	if a == algorithms.SSSP && !g.Weighted() {
		return nil, algorithms.ErrNeedsWeights
	}
	if a == algorithms.BFS || a == algorithms.SSSP {
		if j.Source, ok = g.Index(j.Params.Source); !ok {
			return nil, fmt.Errorf("%s: %w: %d", p.Name(), algorithms.ErrSourceNotFound, j.Params.Source)
		}
	}

	t := granula.NewTracker(fmt.Sprintf("%s/%s", a, g.Name()), p.Name())
	j.Tracker = t
	t.Begin(granula.PhaseSetup)
	state := h.StateBytes(u, a)
	err := allocEach(cl, state)
	if err == nil && h.Setup != nil {
		h.Setup(j)
	}
	t.End()
	if err != nil {
		return nil, fmt.Errorf("%s: allocate state for %s: %w", p.Name(), a, err)
	}
	defer freeEach(cl, cl.Machines(), state)

	cl.ResetTime()
	t.Begin(granula.PhaseProcess)
	out, err := h.Run(ctx, j)
	if err != nil {
		return nil, err
	}
	if h.Process != nil {
		h.Process(j)
	}
	t.Current().Modeled = cl.SimulatedTime()
	t.End()

	t.Begin(granula.PhaseOffload)
	t.End()
	return NewResult(t, cl, out), nil
}

// allocEach registers bytes on every machine of cl. If one machine is out
// of budget it releases the machines it had already registered.
func allocEach(cl *cluster.Cluster, bytes int64) error {
	for m := 0; m < cl.Machines(); m++ {
		if err := cl.Alloc(m, bytes); err != nil {
			freeEach(cl, m, bytes)
			return err
		}
	}
	return nil
}

// freeEach releases bytes on machines [0, n) of cl.
func freeEach(cl *cluster.Cluster, n int, bytes int64) {
	for m := 0; m < n; m++ {
		cl.Free(m, bytes)
	}
}
