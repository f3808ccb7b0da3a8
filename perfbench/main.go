// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three workloads through the program's public entry points — a
// Session compiling and running a plan with a JSONL sink and an archive
// seal, or the graphalyticsd HTTP API served in-process — checks every
// output, and prints its metrics as one JSON object on the last line of
// standard output. See README.md for the workloads and metrics.
//
//	go run . --workload baseline-sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"graphalytics/internal/archive"
	"graphalytics/internal/core"
	"graphalytics/internal/service"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"job_geomean_ms", "ms"},
	{"submit_to_done_p50_ms", "ms"},
	{"submit_to_done_p90_ms", "ms"},
	{"retained_heap_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports, named <module>.<metric>.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"graphstore.build_ms", "ms"}, {"graphstore.snapshot_write_ms", "ms"}, {"graphstore.snapshot_bytes", "bytes"},
		{"graphstore.heap_open_ms", "ms"}, {"graphstore.mapped_open_ms", "ms"}, {"graph.edges", "count"},
		{"upload.count", "count"}, {"upload.ms", "ms"},
	}
	engines := []string{"dataflow", "gas", "native", "pregel", "pushpull", "spmv-d", "spmv-s"}
	for _, e := range engines {
		m = append(m, metricDef{"upload." + e + "_ms", "ms"})
	}
	for _, e := range engines {
		m = append(m, metricDef{"execute." + e + "_ms", "ms"})
	}
	for _, a := range allAlgorithms {
		m = append(m, metricDef{"execute." + strings.ToLower(string(a)) + "_ms", "ms"})
	}
	return append(m,
		metricDef{"granula.setup_ms", "ms"}, metricDef{"granula.load_ms", "ms"}, metricDef{"granula.process_ms", "ms"},
		metricDef{"granula.offload_ms", "ms"}, metricDef{"granula.tproc_ms", "ms"},
		metricDef{"cluster.rounds", "count"}, metricDef{"cluster.traffic_mb", "MB"}, metricDef{"cluster.network_ms", "ms"},
		metricDef{"cluster.peak_memory_mb", "MB"},
		metricDef{"reference.ms", "ms"}, metricDef{"reference.computes", "count"},
		metricDef{"validate.ms", "ms"}, metricDef{"validate.vertices", "count"},
		metricDef{"plan.compile_ms", "ms"}, metricDef{"sink.jsonl_ms", "ms"}, metricDef{"sink.jsonl_bytes", "bytes"},
		metricDef{"harness.unattributed_ms", "ms"}, metricDef{"harness.jobs", "count"},
		metricDef{"archive.seal_ms", "ms"}, metricDef{"archive.bytes", "bytes"}, metricDef{"archive.verify_ms", "ms"},
		metricDef{"service.submit_ms", "ms"}, metricDef{"service.queue_wait_ms", "ms"}, metricDef{"service.queue_wait_p90_ms", "ms"},
		metricDef{"service.run_ms", "ms"}, metricDef{"service.stream_lag_ms", "ms"}, metricDef{"service.results_ms", "ms"},
		metricDef{"service.events_dropped", "count"}, metricDef{"service.retained_runs", "count"},
		metricDef{"go.alloc_mb", "MB"}, metricDef{"go.gc_cycles", "count"}, metricDef{"go.gc_pause_ms", "ms"},
	)
}()

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// work is a scratch directory created for the run and removed after.
	work string
	// small selects the reduced workload variants of the self-tests.
	small bool
}

// report is what one run prints.
type report struct {
	env     environment
	tally   tally
	values  map[string]float64
	spans   []span
	summary []string
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: baseline-sweep, scaling-traversal or daemon-tenants")
	seed := fs.Uint64("seed", 1, "workload seed: permutes platform, dataset and algorithm order")
	seconds := fs.Int("seconds", 20, "run length; converted to a fixed amount of work per workload")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics instead of end-to-end ones")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "parent of the run's scratch directory")
	traceDir := fs.String("trace-out", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, work: dir}
	rep, err := benchmark(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if cfg.trace {
		if err := os.MkdirAll(*traceDir, 0o755); err == nil {
			path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
			err = writeSpans(path, rep.spans)
			if err == nil {
				fmt.Printf("trace: %d spans in %s\n", len(rep.spans), path)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
		}
	}
	out, err := rep.result(cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	envJSON, _ := json.Marshal(rep.env)
	fmt.Printf("env: %s\n", envJSON)
	for _, line := range rep.summary {
		fmt.Println(line)
	}
	for _, p := range rep.tally.problems {
		fmt.Fprintln(os.Stderr, "FAILED:", p)
	}
	fmt.Println(string(out))
	return 0
}

// result renders the final JSON line: every metric of the run's kind.
func (rep *report) result(traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.tally.failed == 0, rep.tally.attempted, rep.tally.failed, metrics})
}

// benchmark runs one workload and returns its report.
func benchmark(ctx context.Context, cfg config) (*report, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.small)
	if err != nil {
		return nil, err
	}
	r := &runner{w: w, work: cfg.work, vertices: map[string]int64{}, layer: map[string]float64{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	rep := &report{env: captureEnv(cfg.workload, cfg.seed, cfg.seconds, cfg.trace), values: r.layer}
	units := w.units(cfg.seconds)
	switch {
	case w.daemon && cfg.trace:
		err = r.daemonTraced(ctx, units, rep)
	case w.daemon:
		err = r.daemonUntraced(ctx, units, rep)
	case cfg.trace:
		err = r.sweepTraced(ctx, rep)
	default:
		err = r.sweepUntraced(ctx, units, rep)
	}
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		rep.spans = r.tr.finished()
		for _, p := range checkSpans(rep.spans) {
			r.tally.add("trace", p)
		}
	}
	rep.tally = r.tally
	rep.summary = append(rep.summary, fmt.Sprintf("summary: failed_frac=%.4f (%d of %d jobs, runs and checks failed)",
		float64(rep.tally.failed)/float64(max(1, rep.tally.attempted)), rep.tally.failed, rep.tally.attempted))
	return rep, nil
}

// verifyArchive checks the archive's hash chain and tallies the result.
func (r *runner) verifyArchive(arch *archive.Archive) error {
	sp := r.tr.root("archive.Verify")
	vr, err := arch.Verify()
	sp.end()
	if err != nil {
		return err
	}
	var problems []string
	for _, p := range vr.Problems {
		problems = append(problems, p.String())
	}
	r.tally.add("archive verify", problems...)
	if sp.t != nil {
		lo, hi := sp.interval()
		r.layer["archive.verify_ms"] = ms(hi - lo)
	}
	return nil
}

func (r *runner) sweepUntraced(ctx context.Context, passes int, rep *report) error {
	setupS, cacheDir, err := r.sweepSetup(ctx)
	if err != nil {
		return err
	}
	arch, err := archive.Open(filepath.Join(r.work, "archive"))
	if err != nil {
		return err
	}
	for i := 0; i < r.w.warmupUnits; i++ {
		if _, err := r.pass(ctx, -1-i, cacheDir, arch); err != nil {
			return err
		}
	}
	var walls []float64
	var jobs []map[core.JobSpec]float64
	var pr passResult
	resetPeakRSS()
	for i := 0; i < passes; i++ {
		pr, err = r.pass(ctx, i, cacheDir, arch)
		if err != nil {
			return err
		}
		walls = append(walls, pr.wall.Seconds())
		jobs = append(jobs, pr.jobMS)
		if i == 0 {
			rep.summary = append(rep.summary, "counters (per pass): "+pr.counters.String())
		}
	}
	v := r.layer
	v["peak_rss_mb"] = peakRSSMB()
	v["setup_s"], v["wall_s"] = setupS, median(walls)
	v["job_geomean_ms"] = cellGeomean(jobs)
	// A sweep is one submission: Compile to the sealed commit.
	v["submit_to_done_p50_ms"], v["submit_to_done_p90_ms"] = 1000*quantile(walls, 0.5), 1000*quantile(walls, 0.9)
	rep.summary = append(rep.summary, fmt.Sprintf("samples: %d set-ups, %d passes of %d ok jobs; pass walls %.3f s", r.w.setupReps, passes, len(pr.jobMS), walls))
	// The samples are reduced to figures above, so the live heap is the
	// program's: the last pass's session and the archive.
	v["retained_heap_mb"] = retainedHeapMB()
	runtime.KeepAlive(pr.sess)
	return r.verifyArchive(arch)
}

func (r *runner) sweepTraced(ctx context.Context, rep *report) error {
	cacheDir := filepath.Join(r.work, "cache")
	if err := r.tracedSetup(cacheDir); err != nil {
		return err
	}
	r.setupLayers(r.tr.finished())
	arch, err := archive.Open(filepath.Join(r.work, "archive"))
	if err != nil {
		return err
	}
	// A warm-up pass, then an untraced pass whose wall time the traced
	// pass's layer self times are subtracted from.
	if _, err := r.pass(ctx, -1, cacheDir, arch); err != nil {
		return err
	}
	untraced, err := r.pass(ctx, 0, cacheDir, arch)
	if err != nil {
		return err
	}
	self, err := r.tracedPass(ctx, cacheDir, arch)
	if err != nil {
		return err
	}
	r.layer["harness.unattributed_ms"] = ms(untraced.wall - self)
	for _, n := range []string{"service.submit_ms", "service.queue_wait_ms", "service.queue_wait_p90_ms", "service.run_ms",
		"service.stream_lag_ms", "service.results_ms", "service.events_dropped", "service.retained_runs"} {
		r.layer[n] = 0 // the sweeps run no service
	}
	rep.summary = append(rep.summary, fmt.Sprintf("untraced pass %.3fs, traced layer self time %.3fs", untraced.wall.Seconds(), self.Seconds()))
	return r.verifyArchive(arch)
}

func (r *runner) daemonUntraced(ctx context.Context, runs int, rep *report) (err error) {
	setupS, svc, err := r.daemonSetup(ctx, r.w.setupReps)
	if err != nil {
		return err
	}
	d, err := serve(svc)
	if err != nil {
		return errors.Join(err, svc.Shutdown(ctx))
	}
	defer func() { err = errors.Join(err, d.close(ctx)) }()
	r.tallyRuns(r.daemonPhase(ctx, d, r.w.warmupUnits))
	resetPeakRSS()
	samples := r.daemonPhase(ctx, d, runs)
	v := r.layer
	v["peak_rss_mb"] = peakRSSMB()
	r.tallyRuns(samples)
	runMS, jobs, wall := latencies(samples)
	v["setup_s"], v["wall_s"] = setupS, wall.Seconds()
	v["job_geomean_ms"] = cellGeomean(jobs)
	v["submit_to_done_p50_ms"], v["submit_to_done_p90_ms"] = quantile(runMS, 0.5), quantile(runMS, 0.9)
	rep.summary = append(rep.summary, fmt.Sprintf("samples: %d set-ups, %d runs per tenant, %d submit-to-done samples",
		r.w.setupReps, runs, len(runMS)))
	// The samples are reduced to figures above, so the live heap is the
	// service's, with every run it retains.
	v["retained_heap_mb"] = retainedHeapMB()
	runtime.KeepAlive(svc)
	return r.verifyArchive(svc.Archive())
}

func (r *runner) daemonTraced(ctx context.Context, runs int, rep *report) (err error) {
	if err := r.tracedSetup(filepath.Join(r.work, "traced-setup")); err != nil {
		return err
	}
	r.setupLayers(r.tr.finished())
	_, svc, err := r.daemonSetup(ctx, 1)
	if err != nil {
		return err
	}
	root := r.tr.root("plan")
	for _, spec := range r.w.specs {
		sp := root.child("core.Session.Compile")
		_, err := svc.Compile(spec)
		sp.end()
		if err != nil {
			return err
		}
	}
	root.end()
	d, err := serve(svc)
	if err != nil {
		return errors.Join(err, svc.Shutdown(ctx))
	}
	defer func() { err = errors.Join(err, d.close(ctx)) }()
	tr := r.tr
	r.tr = nil
	r.tallyRuns(r.daemonPhase(ctx, d, r.w.warmupUnits))
	untraced := r.daemonPhase(ctx, d, runs)
	r.tallyRuns(untraced)
	r.tr = tr
	before := readGoStats()
	samples := r.daemonPhase(ctx, d, runs)
	after := readGoStats()
	r.tallyRuns(samples)
	if err := r.verifyArchive(svc.Archive()); err != nil {
		return err
	}
	health, err := d.health(ctx)
	if err != nil {
		return err
	}

	spans := r.tr.finished()
	traces := map[int]bool{}
	for _, sp := range spans {
		if sp.Name == "plan" {
			traces[sp.Trace] = true
		}
	}
	l := r.layer
	l["plan.compile_ms"] = ms(sumLayers(spans, traces).total["core.Session.Compile"])
	r.resultLayers(samples)
	var submit, wait, runT, lag, results, seal, layered []float64
	var dropped uint64
	var archBytes int64
	for _, s := range samples {
		submit = append(submit, ms(s.submitDur))
		wait = append(wait, ms(s.started.Sub(s.queued)))
		runT = append(runT, ms(s.finished.Sub(s.started)))
		lag = append(lag, ms(s.done.Sub(s.finished)))
		results = append(results, ms(s.resultsDur))
		seal = append(seal, ms(s.finished.Sub(s.lastJob)))
		layered = append(layered, ms(s.submitDur+s.started.Sub(s.queued)+s.finished.Sub(s.started)+s.done.Sub(s.finished)))
		dropped += s.dropped
		if c, err := svc.Archive().Load(s.archiveRoot); err == nil {
			for _, ch := range c.Chunks {
				archBytes += ch.Size
			}
		}
	}
	untracedMS, _, _ := latencies(untraced)
	l["harness.unattributed_ms"] = median(untracedMS) - median(layered)
	l["service.submit_ms"], l["service.queue_wait_ms"], l["service.queue_wait_p90_ms"] = median(submit), median(wait), quantile(wait, 0.9)
	l["service.run_ms"], l["service.stream_lag_ms"], l["service.results_ms"] = median(runT), median(lag), median(results)
	l["service.events_dropped"], l["service.retained_runs"] = float64(dropped), float64(health.Runs)
	l["archive.seal_ms"] = median(seal)
	l["archive.bytes"] = float64(archBytes) / float64(max(1, len(samples)))
	l["go.alloc_mb"] = float64(after.alloc-before.alloc) / 1e6
	l["go.gc_cycles"] = float64(after.gcs - before.gcs)
	l["go.gc_pause_ms"] = float64(after.pause-before.pause) / 1e6
	rep.summary = append(rep.summary, fmt.Sprintf("traced %d runs per tenant; per-run medians for service.*, archive.seal_ms and archive.bytes", runs))
	return nil
}

// health reads the unauthenticated healthz counters.
func (d *daemon) health(ctx context.Context) (service.Health, error) {
	var h service.Health
	resp, err := d.do(ctx, 0, http.MethodGet, "/v1/healthz", nil, http.StatusOK)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&h)
	return h, err
}

// resultLayers fills the engine-side per-layer metrics of the daemon
// from the runs' result records: the service runs uploads, executions
// and validation internally, so only what a JobResult carries is
// observable from the API. Granula phase times, reference and
// validation times are not, and read 0 here (the sweeps measure them).
func (r *runner) resultLayers(samples []runSample) {
	l := r.layer
	for _, m := range perLayer {
		if strings.HasPrefix(m.name, "upload.") || strings.HasPrefix(m.name, "execute.") ||
			strings.HasPrefix(m.name, "granula.") || strings.HasPrefix(m.name, "cluster.") ||
			strings.HasPrefix(m.name, "reference.") || strings.HasPrefix(m.name, "validate.") || strings.HasPrefix(m.name, "sink.") {
			l[m.name] = 0
		}
	}
	var jobs int
	for _, s := range samples {
		for _, res := range s.results {
			jobs++
			if res.Status == "unsupported" {
				continue
			}
			if !res.UploadShared {
				l["upload.count"]++
				l["upload.ms"] += ms(res.UploadTime)
				l["upload."+res.Spec.Platform+"_ms"] += ms(res.UploadTime)
			}
			l["execute."+res.Spec.Platform+"_ms"] += ms(res.Makespan)
			l["execute."+strings.ToLower(string(res.Spec.Algorithm))+"_ms"] += ms(res.Makespan)
			l["granula.tproc_ms"] += ms(res.ProcessingTime)
			l["cluster.rounds"] += float64(res.Rounds)
			l["cluster.network_ms"] += ms(res.NetworkTime)
			l["cluster.peak_memory_mb"] = max(l["cluster.peak_memory_mb"], float64(res.PeakMemory)/1e6)
			if res.Validated {
				l["validate.vertices"] += float64(r.vertices[res.Spec.Dataset])
			}
		}
		l["sink.jsonl_bytes"] += float64(s.resultBytes)
	}
	l["harness.jobs"] = float64(jobs)
}
