package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/archive"
	"graphalytics/internal/cluster"
	"graphalytics/internal/core"
	"graphalytics/internal/granula"
	"graphalytics/internal/graph"
	"graphalytics/internal/graphstore"
	"graphalytics/internal/platform"
	"graphalytics/internal/validation"
	"graphalytics/internal/workload"
)

// tally counts attempted and failed items (jobs, runs and end-of-run
// checks); failed_frac is failed over attempted.
type tally struct {
	attempted, failed int
	problems          []string
}

// add records one item; a non-empty problem list marks it failed.
func (t *tally) add(what string, problems ...string) {
	t.attempted++
	if len(problems) > 0 {
		t.failed++
		t.problems = append(t.problems, what+": "+strings.Join(problems, "; "))
	}
}

// runner is one benchmark run of one workload.
type runner struct {
	w     *wdef
	work  string  // scratch directory, removed when the run ends
	tr    *tracer // nil for an untraced run
	tally tally
	// vertices maps each set-up dataset to its vertex count.
	vertices map[string]int64
	// layer holds the traced run's per-layer metrics.
	layer map[string]float64
}

// coldSetup materializes the workload's datasets into an empty snapshot
// directory (generator build plus snapshot write) and returns the
// set-up counters.
func (r *runner) coldSetup(ctx context.Context, st *graphstore.Store) (counters, error) {
	var edges int64
	err := workload.WarmIDs(ctx, st, 1, r.w.datasets, func(id string, res graphstore.Result, err error) {
		if err == nil {
			edges += res.Graph.NumEdges()
			r.vertices[id] = int64(res.Graph.NumVertices())
		}
	})
	if err != nil {
		return nil, err
	}
	var bytes int64
	for _, id := range r.w.datasets {
		d, err := workload.ByID(id)
		if err != nil {
			return nil, err
		}
		fi, err := os.Stat(st.SnapshotPath(d.Fingerprint()))
		if err != nil {
			return nil, fmt.Errorf("set-up: snapshot of %s: %w", id, err)
		}
		bytes += fi.Size()
	}
	return counters{"graph.edges": edges, "graphstore.snapshot_bytes": bytes}, nil
}

// tracedSetup times the graph-store layer once per dataset through its
// public building blocks: the generator, the snapshot writer, and a
// store load of the written snapshot onto the heap and as a mapping.
func (r *runner) tracedSetup(dir string) error {
	root := r.tr.root("setup")
	defer root.end()
	var edges, bytes int64
	heap := graphstore.New(graphstore.Options{Dir: dir})
	mapped := graphstore.New(graphstore.Options{Dir: dir, MapSnapshots: true})
	for _, id := range r.w.datasets {
		d, err := workload.ByID(id)
		if err != nil {
			return err
		}
		sp := root.child("workload.Dataset.Generate", "dataset", id)
		g, err := d.Generate()
		sp.end()
		if err != nil {
			return err
		}
		path := heap.SnapshotPath(d.Fingerprint())
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		sp = root.child("graph.WriteSnapshotFile", "dataset", id)
		err = graph.WriteSnapshotFile(path, g)
		sp.end()
		if err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		bytes += fi.Size()
		edges += g.NumEdges()
		r.vertices[id] = int64(g.NumVertices())
		for _, s := range []struct {
			name string
			st   *graphstore.Store
		}{{"heap", heap}, {"mapped", mapped}} {
			sp = root.child("workload.GetFrom", "store", s.name, "dataset", id)
			res, err := workload.GetFrom(s.st, id)
			sp.end()
			if err != nil {
				return err
			}
			if res.Source != graphstore.SourceSnapshot {
				return fmt.Errorf("set-up: %s store served %s from %s, want snapshot", s.name, id, res.Source)
			}
		}
	}
	r.tally.add("set-up counters", r.w.checkCounters("setup", counters{"graph.edges": edges, "graphstore.snapshot_bytes": bytes})...)
	r.layer["graph.edges"] = float64(edges)
	r.layer["graphstore.snapshot_bytes"] = float64(bytes)
	return nil
}

// setupLayers turns the set-up spans into graph-store metrics.
func (r *runner) setupLayers(spans []span) {
	traces := map[int]bool{}
	for _, sp := range spans {
		if sp.Name == "setup" {
			traces[sp.Trace] = true
		}
	}
	lt := sumLayers(spans, traces)
	r.layer["graphstore.build_ms"] = ms(lt.total["workload.Dataset.Generate"])
	r.layer["graphstore.snapshot_write_ms"] = ms(lt.total["graph.WriteSnapshotFile"])
	r.layer["graphstore.heap_open_ms"] = ms(lt.total["workload.GetFrom|store=heap"])
	r.layer["graphstore.mapped_open_ms"] = ms(lt.total["workload.GetFrom|store=mapped"])
}

// sweepSetup repeats the cold set-up and returns the median time and the
// warm snapshot directory of the last repetition.
func (r *runner) sweepSetup(ctx context.Context) (float64, string, error) {
	var times []float64
	var dir string
	for i := 0; i < r.w.setupReps; i++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return 0, "", err
			}
		}
		dir = filepath.Join(r.work, fmt.Sprintf("cache-%d", i))
		start := time.Now()
		c, err := r.coldSetup(ctx, graphstore.New(graphstore.Options{Dir: dir}))
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			return 0, "", err
		}
		r.tally.add(fmt.Sprintf("set-up %d counters", i), r.w.checkCounters("setup", c)...)
	}
	return median(times), dir, nil
}

// passResult is one untraced sweep pass.
type passResult struct {
	sess     *core.Session
	wall     time.Duration
	jobMS    map[core.JobSpec]float64 // each ok job, as amortizedJobMS computes it
	counters counters
}

// pass runs the workload's spec once through the public pipeline: a
// fresh Session over the warm snapshot directory, Compile, RunPlan with
// a JSONL sink and an archive sink, and the archive seal.
func (r *runner) pass(ctx context.Context, i int, cacheDir string, arch *archive.Archive) (passResult, error) {
	spec := r.w.specs[0]
	f, err := os.Create(filepath.Join(r.work, fmt.Sprintf("pass-%d.jsonl", i)))
	if err != nil {
		return passResult{}, err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	sess := core.NewSession(core.WithCacheDir(cacheDir), core.WithParallelism(1))

	start := time.Now()
	plan, err := sess.Compile(spec)
	if err != nil {
		return passResult{}, err
	}
	// Job wall time runs from the job-started to the job-finished event.
	// Results reach sinks in plan order, so a job the plan lists after
	// later-running ones would otherwise be charged their time too.
	starts := make([]time.Time, len(plan.Jobs))
	walls := map[int]time.Duration{}
	obs := core.ObserverFunc(func(e core.Event) {
		switch e.Type {
		case core.EventJobStarted:
			starts[e.Index] = e.Time
		case core.EventJobFinished:
			walls[e.Index] = e.Time.Sub(starts[e.Index])
		}
	})
	asink := core.NewArchiveSink(arch, spec.Name, &spec)
	results, err := sess.RunPlan(ctx, plan, core.WithObserver(obs), core.WithSink(core.NewJSONLSink(bw)), core.WithSink(asink))
	if err != nil {
		return passResult{}, err
	}
	if err := bw.Flush(); err != nil {
		return passResult{}, err
	}
	if _, err := asink.Commit(); err != nil {
		return passResult{}, err
	}
	wall := time.Since(start)

	r.checkJobs(results)
	c := r.resultCounters(results)
	r.tally.add(fmt.Sprintf("pass %d counters", i), r.w.checkCounters("pass", c)...)
	return passResult{sess: sess, wall: wall, jobMS: amortizedJobMS(results, walls), counters: c}, f.Close()
}

// checkJobs tallies each job against the expected-status matrix.
func (r *runner) checkJobs(results []core.JobResult) {
	for _, res := range results {
		if p := r.w.checkJob(res); p != "" {
			r.tally.add("job", p)
		} else {
			r.tally.add("job")
		}
	}
}

// amortizedJobMS returns the wall time in ms of each ok job, keyed by
// its spec, with the
// work jobs share split evenly among them: a deployment's upload among
// its jobs, and the reference computation and validation of a
// (dataset, algorithm) pair among the jobs on that pair. RunPlan charges
// an upload or a reference to whichever job needs it first, and the seed
// picks that job; charged that way, the geometric mean and percentiles
// would move with the seed. walls maps plan index to the job's time from
// its job-started to its job-finished event.
func amortizedJobMS(results []core.JobResult, walls map[int]time.Duration) map[core.JobSpec]float64 {
	type share struct {
		total time.Duration
		n     int
	}
	deps, pairs := map[core.JobSpec]*share{}, map[core.JobSpec]*share{}
	add := func(m map[core.JobSpec]*share, k core.JobSpec, d time.Duration) {
		if m[k] == nil {
			m[k] = &share{}
		}
		m[k].total += d
		m[k].n++
	}
	depKey := func(j core.JobSpec) core.JobSpec { j.Algorithm = ""; return j }
	pairKey := func(j core.JobSpec) core.JobSpec { return core.JobSpec{Dataset: j.Dataset, Algorithm: j.Algorithm} }
	for i, res := range results {
		if res.Status != core.StatusOK {
			continue
		}
		var upload time.Duration
		if !res.UploadShared {
			upload = res.UploadTime
		}
		add(deps, depKey(res.Spec), upload)
		add(pairs, pairKey(res.Spec), walls[i]-res.Makespan-upload)
	}
	out := map[core.JobSpec]float64{}
	for _, res := range results {
		if res.Status != core.StatusOK {
			continue
		}
		d, p := deps[depKey(res.Spec)], pairs[pairKey(res.Spec)]
		out[res.Spec] = ms(res.Makespan + d.total/time.Duration(d.n) + p.total/time.Duration(p.n))
	}
	return out
}

// cellGeomean returns the geometric mean over job cells of each cell's
// median time across passes or runs, so one slow sample of a 1 ms job —
// a GC pause, a descheduled thread — does not move the figure.
func cellGeomean(samples []map[core.JobSpec]float64) float64 {
	cells := map[core.JobSpec][]float64{}
	for _, s := range samples {
		for k, v := range s {
			cells[k] = append(cells[k], v)
		}
	}
	meds := make([]float64, 0, len(cells))
	for _, v := range cells {
		meds = append(meds, median(v))
	}
	slices.Sort(meds) // a fixed summation order
	return geomean(meds)
}

// resultCounters derives a unit's deterministic counters from its
// results: jobs, performed uploads, rounds, distinct validated
// (dataset, algorithm) pairs (a fresh session computes each reference
// once), and validated vertices.
func (r *runner) resultCounters(results []core.JobResult) counters {
	c := counters{"jobs": int64(len(results)), "upload.count": 0, "cluster.rounds": 0, "reference.computes": 0, "validate.vertices": 0}
	pairs := map[string]bool{}
	for _, res := range results {
		if res.Status != core.StatusUnsupported && !res.UploadShared {
			c["upload.count"]++
		}
		c["cluster.rounds"] += int64(res.Rounds)
		if res.Validated {
			pairs[res.Spec.Dataset+"/"+string(res.Spec.Algorithm)] = true
			c["validate.vertices"] += r.vertices[res.Spec.Dataset]
		}
	}
	c["reference.computes"] = int64(len(pairs))
	return c
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// granulaTotals sums the measured standard phases of Granula archives.
type granulaTotals struct {
	setup, load, process, offload, tproc time.Duration
}

// addArchive adds one job's Granula tree to the totals and to the trace
// as children of the Execute span.
func (g *granulaTotals) addArchive(parent spanRef, a *granula.Archive) {
	if a == nil || a.Root == nil {
		return
	}
	phase := func(name string) time.Duration {
		if op := a.Root.Find(name); op != nil {
			return op.Measured()
		}
		return 0
	}
	g.setup += phase(granula.PhaseSetup)
	g.load += phase(granula.PhaseLoad)
	g.process += phase(granula.PhaseProcess)
	g.offload += phase(granula.PhaseOffload)
	g.tproc += a.ProcessingTime()
	if parent.t == nil {
		return
	}
	var add func(p spanRef, op *granula.Operation)
	add = func(p spanRef, op *granula.Operation) {
		lo, hi := p.interval()
		c := p.childAt("granula."+op.Name, op.Start, op.End, lo, hi)
		for _, k := range op.Children {
			add(c, k)
		}
	}
	add(parent, a.Root)
}

// tracedPass runs the workload's spec once with every layer call made
// from here, under a span: Compile, the store load, the upload, each
// Execute with its Granula tree, the reference and validation, the
// JSONL sink and the archive seal. It mirrors RunPlan's deployment
// order, upload sharing and statuses, and returns the summed self time
// of its layer spans.
func (r *runner) tracedPass(ctx context.Context, cacheDir string, arch *archive.Archive) (time.Duration, error) {
	spec := r.w.specs[0]
	root := r.tr.root("pass")
	before := readGoStats()
	sess := core.NewSession(core.WithCacheDir(cacheDir), core.WithParallelism(1))
	sp := root.child("core.Session.Compile")
	plan, err := sess.Compile(spec)
	sp.end()
	if err != nil {
		return 0, err
	}
	store := graphstore.New(graphstore.Options{Dir: cacheDir})
	f, err := os.Create(filepath.Join(r.work, "traced.jsonl"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	cw := &countingWriter{w: bw}
	sink := core.NewJSONLSink(cw)

	results := make([]core.JobResult, len(plan.Jobs))
	refs := map[string]*algorithms.Output{}
	var gt granulaTotals
	var rounds, traffic, peak, vertices int64
	var network time.Duration
	runDeployment := func(dep core.Deployment) error {
		p, err := platform.Get(dep.Platform)
		if err != nil {
			return err
		}
		d, err := workload.ByID(dep.Dataset)
		if err != nil {
			return err
		}
		sp := root.child("workload.GetFrom", "store", "heap", "dataset", d.ID)
		loaded, err := workload.GetFrom(store, d.ID)
		sp.end()
		if err != nil {
			return err
		}
		g := loaded.Graph
		cfg := platform.RunConfig{Threads: dep.Config.Threads, Machines: dep.Config.Machines, MemoryPerMachine: dep.Config.MemoryPerMachine, Net: cluster.DefaultNetwork()}
		var up platform.Uploaded
		var upTime time.Duration
		for _, ji := range dep.Jobs {
			job := plan.Jobs[ji]
			js := root.child("job", "engine", job.Platform, "algorithm", string(job.Algorithm))
			res := core.JobResult{Spec: job, Timestamp: time.Now(), Scale: workload.Scale(g), Class: workload.Class(g)}
			if !p.Supports(job.Algorithm) || (job.Algorithm == algorithms.SSSP && !g.Weighted()) {
				res.Status = core.StatusUnsupported
			} else {
				if up == nil {
					us := js.child("platform.UploadContext", "engine", job.Platform)
					start := time.Now()
					up, err = platform.UploadContext(ctx, p, g, cfg)
					upTime = time.Since(start)
					us.end()
					if err != nil {
						js.end()
						return err
					}
					defer up.Free() // once per deployment, like RunPlan's upload lease
				} else {
					res.UploadShared = true
				}
				res.UploadTime = upTime
				es := js.child("Platform.Execute", "engine", job.Platform, "algorithm", strings.ToLower(string(job.Algorithm)))
				out, err := p.Execute(ctx, up, job.Algorithm, d.Params)
				es.end()
				if err != nil {
					js.end()
					return fmt.Errorf("%s/%s/%s: %w", job.Platform, job.Dataset, job.Algorithm, err)
				}
				traffic += up.Cluster().Traffic()
				gt.addArchive(es, out.Archive)
				res.Makespan, res.ProcessingTime, res.NetworkTime = out.Makespan, out.ProcessingTime, out.NetworkTime
				res.Rounds, res.PeakMemory = out.Rounds, out.PeakMemory
				rounds += int64(out.Rounds)
				network += out.NetworkTime
				peak = max(peak, out.PeakMemory)

				key := d.ID + "/" + string(job.Algorithm)
				want, ok := refs[key]
				if !ok {
					rs := js.child("algorithms.RunReferenceWorkers", "algorithm", string(job.Algorithm))
					want, err = algorithms.RunReferenceWorkers(g, job.Algorithm, d.Params, 0)
					rs.end()
					if err != nil {
						js.end()
						return err
					}
					refs[key] = want
				}
				vs := js.child("validation.Validate")
				rep := validation.Validate(out.Output, want, g.IDs())
				vs.end()
				vertices += int64(g.NumVertices())
				res.Validated, res.ValidationOK = true, rep.OK
				res.Status = core.StatusOK
				if !rep.OK {
					res.Status, res.Error = core.StatusInvalid, rep.FirstDiff
				}
			}
			ss := js.child("core.Sink.Consume", "sink", "jsonl")
			err = sink.Consume(res)
			ss.end()
			js.end()
			if err != nil {
				return err
			}
			results[ji] = res
		}
		return nil
	}
	for _, dep := range plan.Deployments {
		if err := runDeployment(dep); err != nil {
			return 0, err
		}
	}
	sp = root.child("bufio.Writer.Flush")
	err = bw.Flush()
	sp.end()
	if err != nil {
		return 0, err
	}
	sp = root.child("archive.CommitResults")
	commit, err := arch.CommitResults(spec.Name, &spec, results)
	sp.end()
	if err != nil {
		return 0, err
	}
	root.end()
	after := readGoStats()

	c := counters{
		"jobs": int64(len(results)), "upload.count": 0, "cluster.rounds": rounds, "cluster.traffic_bytes": traffic,
		"reference.computes": int64(len(refs)), "validate.vertices": vertices,
	}
	spans := r.tr.finished()
	lt := sumLayers(spans, map[int]bool{root.trace: true})
	c["upload.count"] = int64(lt.count["platform.UploadContext"])
	r.checkJobs(results)
	r.tally.add("traced pass counters", r.w.checkCounters("pass", c)...)

	var archBytes int64
	for _, ch := range commit.Chunks {
		archBytes += ch.Size
	}
	l := r.layer
	l["harness.jobs"] = float64(len(results))
	l["upload.count"] = float64(c["upload.count"])
	l["upload.ms"] = ms(lt.total["platform.UploadContext"])
	for _, e := range platform.Names() {
		l["upload."+e+"_ms"] = ms(lt.total["platform.UploadContext|engine="+e])
		l["execute."+e+"_ms"] = ms(lt.total["Platform.Execute|engine="+e])
	}
	for _, a := range allAlgorithms {
		n := strings.ToLower(string(a))
		l["execute."+n+"_ms"] = ms(lt.total["Platform.Execute|algorithm="+n])
	}
	l["granula.setup_ms"], l["granula.load_ms"] = ms(gt.setup), ms(gt.load)
	l["granula.process_ms"], l["granula.offload_ms"], l["granula.tproc_ms"] = ms(gt.process), ms(gt.offload), ms(gt.tproc)
	l["cluster.rounds"] = float64(rounds)
	l["cluster.traffic_mb"] = float64(traffic) / 1e6
	l["cluster.network_ms"] = ms(network)
	l["cluster.peak_memory_mb"] = float64(peak) / 1e6
	l["reference.ms"] = ms(lt.total["algorithms.RunReferenceWorkers"])
	l["reference.computes"] = float64(len(refs))
	l["validate.ms"] = ms(lt.total["validation.Validate"])
	l["validate.vertices"] = float64(vertices)
	l["plan.compile_ms"] = ms(lt.total["core.Session.Compile"])
	l["sink.jsonl_ms"] = ms(lt.total["core.Sink.Consume"] + lt.total["bufio.Writer.Flush"])
	l["sink.jsonl_bytes"] = float64(cw.n)
	l["archive.seal_ms"] = ms(lt.total["archive.CommitResults"])
	l["archive.bytes"] = float64(archBytes)
	l["go.alloc_mb"] = float64(after.alloc-before.alloc) / 1e6
	l["go.gc_cycles"] = float64(after.gcs - before.gcs)
	l["go.gc_pause_ms"] = float64(after.pause-before.pause) / 1e6
	return lt.self, f.Close()
}
