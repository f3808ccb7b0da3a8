package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/metrics"
	"graphalytics/internal/workload"
)

// This file implements the experiment suites of Table 6 on the Spec →
// Plan → Run pipeline. Each experiment is a spec builder (XxxSpec)
// returning the declarative BenchSpec of its job matrix; the Session
// method compiles that spec into a plan, executes it with shared uploads
// through RunPlan, and renders the rows of the paper artifact it
// regenerates. Section numbers refer to the paper.

// ExperimentConfig parameterizes the experiment suites: which platforms to
// sweep, the resource axes, and the experiment-specific knobs. Zero values
// select nothing — every experiment documents the fields it reads.
type ExperimentConfig struct {
	// Platforms lists the engines under test for single-axis experiments.
	Platforms []string
	// SingleMachine and Distributed split the engines for experiments
	// that treat the two deployment styles differently (Variability).
	SingleMachine []string
	Distributed   []string
	// Threads is the per-machine thread count for experiments that do not
	// sweep threads.
	Threads int
	// ThreadSweep is the thread axis of the vertical-scalability sweep.
	ThreadSweep []int
	// MachineSweep is the machine axis of the strong-scaling sweep.
	MachineSweep []int
	// WeakPairs couples machine counts with datasets for weak scaling.
	WeakPairs []WeakPair
	// MemoryBudget bounds per-machine engine memory in the stress test.
	MemoryBudget int64
	// Repetitions is the per-job repeat count in the variability
	// experiment; values below 1 select 1.
	Repetitions int
}

// effectivePlatform substitutes the distributed matrix backend for SSSP on
// the shared-memory one, exactly as the paper does ("SSSP is not supported
// in S, so we use D only for this algorithm").
func effectivePlatform(name string, a algorithms.Algorithm) string {
	if name == "spmv-s" && a == algorithms.SSSP {
		return "spmv-d"
	}
	return name
}

// planResults indexes a plan's results for report assembly. Keys are job
// specs with the SLA field cleared, so report code can look jobs up
// without re-deriving the spec-level SLA stamp; repetitions of the same
// job accumulate in plan order.
type planResults map[JobSpec][]JobResult

func indexResults(results []JobResult) planResults {
	m := make(planResults, len(results))
	for _, r := range results {
		k := r.Spec
		k.SLA = 0
		m[k] = append(m[k], r)
	}
	return m
}

// get returns the (first) result of a job, erroring on a spec the plan
// never ran — a bug in the experiment's spec builder, not a job failure.
func (m planResults) get(spec JobSpec) (JobResult, error) {
	spec.SLA = 0
	rs := m[spec]
	if len(rs) == 0 {
		return JobResult{}, fmt.Errorf("core: no plan result for %s/%s/%s t=%d m=%d",
			spec.Platform, spec.Dataset, spec.Algorithm, spec.Threads, spec.Machines)
	}
	return rs[0], nil
}

// all returns every repetition of a job, in plan order.
func (m planResults) all(spec JobSpec) []JobResult {
	spec.SLA = 0
	return m[spec]
}

// runSpec compiles an experiment spec, executes the plan and indexes its
// results — the shared execution path of every experiment method. A
// non-nil error alongside a non-nil index is sink-only (SinkOnly): the
// jobs completed, so the caller finishes its report and returns both.
func (s *Session) runSpec(ctx context.Context, spec BenchSpec, opts ...Option) (planResults, error) {
	plan, err := s.Compile(spec)
	if err != nil {
		return nil, err
	}
	results, err := s.RunPlan(ctx, plan, opts...)
	if err != nil && !SinkOnly(err) {
		return nil, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	return indexResults(results), err
}

// DatasetVarietySpec declares the Figure 4 matrix: BFS and PageRank on
// every dataset up to class L, on a single machine, for every platform.
// An empty platform list declares an empty matrix.
func DatasetVarietySpec(cfg ExperimentConfig) BenchSpec {
	if len(cfg.Platforms) == 0 {
		return BenchSpec{Name: "fig4"}
	}
	return BenchSpec{
		Name:       "fig4",
		Platforms:  cfg.Platforms,
		Datasets:   DatasetSelector{MaxClass: string(metrics.ClassL)},
		Algorithms: []algorithms.Algorithm{algorithms.BFS, algorithms.PR},
		Configs:    []ResourceSpec{{Threads: cfg.Threads, Machines: 1}},
	}
}

// DatasetVariety (Section 4.1, Figure 4) compiles DatasetVarietySpec and
// runs it: one upload per (platform, dataset) deployment covers both
// algorithms. Reads Platforms and Threads.
func (s *Session) DatasetVariety(ctx context.Context, cfg ExperimentConfig) (*Report, error) {
	datasets, err := workload.UpToClassWith(s.loadGraph, metrics.ClassL)
	if err != nil {
		return nil, err
	}
	finish := s.experimentSpan("fig4")
	defer finish()
	spec := DatasetVarietySpec(cfg)
	if len(cfg.Platforms) > 0 {
		// The row axis above already resolved the class-L selection; pin
		// the explicit IDs so Compile does not re-materialize the filter.
		ids := make([]string, len(datasets))
		for i, d := range datasets {
			ids[i] = d.ID
		}
		spec.Datasets = DatasetSelector{IDs: ids}
	}
	idx, sinkErr := s.runSpec(ctx, spec)
	if idx == nil {
		return nil, sinkErr
	}
	rep := &Report{
		ID:      "fig4",
		Title:   "Dataset variety: Tproc for BFS and PR, single machine",
		Columns: append([]string{"dataset", "class", "algorithm"}, cfg.Platforms...),
	}
	for _, d := range datasets {
		g, err := s.loadGraph(d)
		if err != nil {
			return nil, err
		}
		class := string(workload.Class(g))
		for _, a := range []algorithms.Algorithm{algorithms.BFS, algorithms.PR} {
			row := []string{fmt.Sprintf("%s(%s)", d.ID, class), class, string(a)}
			for _, p := range cfg.Platforms {
				res, err := idx.get(JobSpec{Platform: p, Dataset: d.ID, Algorithm: a, Threads: cfg.Threads, Machines: 1})
				if err != nil {
					return nil, err
				}
				row = append(row, cell(res))
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, sinkErr
}

// ThroughputReport (Section 4.1, Figure 5) derives EPS and EVPS for BFS
// from the dataset-variety results already in the database.
func ThroughputReport(db *ResultsDB, platforms []string) *Report {
	rep := &Report{
		ID:      "fig5",
		Title:   "Dataset variety: EPS and EVPS for BFS, single machine",
		Columns: []string{"dataset", "platform", "EPS", "EVPS"},
	}
	results := db.Query(Filter{Algorithm: algorithms.BFS, Machines: 1, Status: StatusOK})
	for _, p := range platforms {
		for _, res := range results {
			if res.Spec.Platform != p {
				continue
			}
			rep.Rows = append(rep.Rows, []string{
				res.Spec.Dataset, p, fmtRate(res.EPS), fmtRate(res.EVPS),
			})
		}
	}
	rep.Notes = append(rep.Notes,
		"ideal platforms would show constant EPS/EVPS across datasets; variation indicates dataset sensitivity")
	return rep
}

// ThroughputReport derives Figure 5 from the session's database.
func (s *Session) ThroughputReport(cfg ExperimentConfig) *Report {
	return ThroughputReport(s.cfg.db, cfg.Platforms)
}

// algorithmVarietyDatasets are the two weighted graphs of Figure 6.
var algorithmVarietyDatasets = []string{"R4", "D300"}

// AlgorithmVarietySpec declares the Figure 6 matrix: all six algorithms
// on R4(S) and D300(L). SSSP jobs for platforms with a distributed
// substitute backend (spmv-s → spmv-d) land in a second sweep on the
// substitute, mirroring the paper's footnote. An empty platform list
// declares an empty matrix.
func AlgorithmVarietySpec(cfg ExperimentConfig) BenchSpec {
	if len(cfg.Platforms) == 0 {
		return BenchSpec{Name: "fig6"}
	}
	nonSSSP := make([]algorithms.Algorithm, 0, len(algorithms.All)-1)
	for _, a := range algorithms.All {
		if a != algorithms.SSSP {
			nonSSSP = append(nonSSSP, a)
		}
	}
	var ssspPlatforms []string
	for _, p := range cfg.Platforms {
		eff := effectivePlatform(p, algorithms.SSSP)
		if !slices.Contains(ssspPlatforms, eff) {
			ssspPlatforms = append(ssspPlatforms, eff)
		}
	}
	spec := BenchSpec{
		Name:       "fig6",
		Platforms:  cfg.Platforms,
		Datasets:   DatasetSelector{IDs: algorithmVarietyDatasets},
		Algorithms: nonSSSP,
		Configs:    []ResourceSpec{{Threads: cfg.Threads, Machines: 1}},
	}
	if len(ssspPlatforms) > 0 {
		spec.Sweeps = append(spec.Sweeps, Sweep{
			Platforms:  ssspPlatforms,
			Datasets:   DatasetSelector{IDs: algorithmVarietyDatasets},
			Algorithms: []algorithms.Algorithm{algorithms.SSSP},
			Configs:    []ResourceSpec{{Threads: cfg.Threads, Machines: 1}},
		})
	}
	return spec
}

// AlgorithmVariety (Section 4.2, Figure 6) compiles AlgorithmVarietySpec
// and runs it: each (platform, dataset) deployment uploads once for its
// five non-SSSP algorithms. Reads Platforms and Threads.
func (s *Session) AlgorithmVariety(ctx context.Context, cfg ExperimentConfig) (*Report, error) {
	finish := s.experimentSpan("fig6")
	defer finish()
	idx, sinkErr := s.runSpec(ctx, AlgorithmVarietySpec(cfg))
	if idx == nil {
		return nil, sinkErr
	}
	rep := &Report{
		ID:      "fig6",
		Title:   "Algorithm variety: Tproc for all core algorithms on R4(S) and D300(L)",
		Columns: append([]string{"dataset", "algorithm"}, cfg.Platforms...),
	}
	for _, ds := range algorithmVarietyDatasets {
		for _, a := range algorithms.All {
			row := []string{ds, string(a)}
			for _, p := range cfg.Platforms {
				eff := effectivePlatform(p, a)
				res, err := idx.get(JobSpec{Platform: eff, Dataset: ds, Algorithm: a, Threads: cfg.Threads, Machines: 1})
				if err != nil {
					return nil, err
				}
				c := cell(res)
				if eff != p && res.Status == StatusOK {
					c += " (D)"
				}
				row = append(row, c)
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, sinkErr
}

// VerticalScalabilitySpec declares the Figure 7 matrix: BFS and PageRank
// on D300(L) across the thread sweep on one machine. An empty platform
// list or thread sweep declares an empty matrix.
func VerticalScalabilitySpec(cfg ExperimentConfig) BenchSpec {
	if len(cfg.Platforms) == 0 || len(cfg.ThreadSweep) == 0 {
		return BenchSpec{Name: "fig7"}
	}
	configs := make([]ResourceSpec, 0, len(cfg.ThreadSweep))
	for _, t := range cfg.ThreadSweep {
		configs = append(configs, ResourceSpec{Threads: t, Machines: 1})
	}
	return BenchSpec{
		Name:       "fig7",
		Platforms:  cfg.Platforms,
		Datasets:   DatasetSelector{IDs: []string{"D300"}},
		Algorithms: []algorithms.Algorithm{algorithms.BFS, algorithms.PR},
		Configs:    configs,
	}
}

// VerticalScalability (Section 4.3, Figure 7) compiles
// VerticalScalabilitySpec and runs it: each thread count is its own
// deployment (engines lay data out per configuration), shared by both
// algorithms. Reads Platforms and ThreadSweep.
func (s *Session) VerticalScalability(ctx context.Context, cfg ExperimentConfig) (*Report, error) {
	finish := s.experimentSpan("fig7")
	defer finish()
	idx, sinkErr := s.runSpec(ctx, VerticalScalabilitySpec(cfg))
	if idx == nil {
		return nil, sinkErr
	}
	rep := &Report{
		ID:      "fig7",
		Title:   "Vertical scalability: Tproc vs. threads, BFS and PR on D300(L)",
		Columns: append([]string{"algorithm", "threads"}, cfg.Platforms...),
	}
	for _, a := range []algorithms.Algorithm{algorithms.BFS, algorithms.PR} {
		for _, t := range cfg.ThreadSweep {
			row := []string{string(a), fmt.Sprint(t)}
			for _, p := range cfg.Platforms {
				res, err := idx.get(JobSpec{Platform: p, Dataset: "D300", Algorithm: a, Threads: t, Machines: 1})
				if err != nil {
					return nil, err
				}
				row = append(row, cell(res))
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, sinkErr
}

// VerticalSpeedupReport (Table 9) derives the maximum speedup per platform
// and algorithm from the vertical-scalability results in the database.
func VerticalSpeedupReport(db *ResultsDB, platforms []string) *Report {
	rep := &Report{
		ID:      "table9",
		Title:   "Vertical scalability: maximum speedup on D300(L), 1-32 threads",
		Columns: append([]string{"algorithm"}, platforms...),
	}
	for _, a := range []algorithms.Algorithm{algorithms.BFS, algorithms.PR} {
		row := []string{string(a)}
		for _, p := range platforms {
			results := db.Query(Filter{Platform: p, Dataset: "D300", Algorithm: a, Status: StatusOK, Machines: 1})
			var base, best time.Duration
			for _, res := range results {
				if res.Spec.Threads == 1 {
					base = res.ProcessingTime
				}
				if best == 0 || res.ProcessingTime < best {
					best = res.ProcessingTime
				}
			}
			if base == 0 || best == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.1f", metrics.Speedup(base, best)))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// VerticalSpeedupReport derives Table 9 from the session's database.
func (s *Session) VerticalSpeedupReport(cfg ExperimentConfig) *Report {
	return VerticalSpeedupReport(s.cfg.db, cfg.Platforms)
}

// StrongScalingSpec declares the Figure 8 matrix: BFS and PageRank on
// D1000(XL) across the machine sweep, dataset constant. An empty
// platform list or machine sweep declares an empty matrix.
func StrongScalingSpec(cfg ExperimentConfig) BenchSpec {
	if len(cfg.Platforms) == 0 || len(cfg.MachineSweep) == 0 {
		return BenchSpec{Name: "fig8"}
	}
	configs := make([]ResourceSpec, 0, len(cfg.MachineSweep))
	for _, m := range cfg.MachineSweep {
		configs = append(configs, ResourceSpec{Threads: cfg.Threads, Machines: m})
	}
	return BenchSpec{
		Name:       "fig8",
		Platforms:  cfg.Platforms,
		Datasets:   DatasetSelector{IDs: []string{"D1000"}},
		Algorithms: []algorithms.Algorithm{algorithms.BFS, algorithms.PR},
		Configs:    configs,
	}
}

// StrongScaling (Section 4.4, Figure 8) compiles StrongScalingSpec and
// runs it. Reads Platforms, MachineSweep and Threads.
func (s *Session) StrongScaling(ctx context.Context, cfg ExperimentConfig) (*Report, error) {
	finish := s.experimentSpan("fig8")
	defer finish()
	idx, sinkErr := s.runSpec(ctx, StrongScalingSpec(cfg))
	if idx == nil {
		return nil, sinkErr
	}
	rep := &Report{
		ID:      "fig8",
		Title:   "Strong horizontal scalability: Tproc vs. machines, BFS and PR on D1000(XL)",
		Columns: append([]string{"algorithm", "machines"}, cfg.Platforms...),
	}
	for _, a := range []algorithms.Algorithm{algorithms.BFS, algorithms.PR} {
		for _, mach := range cfg.MachineSweep {
			row := []string{string(a), fmt.Sprint(mach)}
			for _, p := range cfg.Platforms {
				res, err := idx.get(JobSpec{Platform: p, Dataset: "D1000", Algorithm: a, Threads: cfg.Threads, Machines: mach})
				if err != nil {
					return nil, err
				}
				row = append(row, cell(res))
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, sinkErr
}

// WeakPair couples a machine count with the Graph500 dataset that keeps
// per-machine work constant.
type WeakPair struct {
	Machines int
	Dataset  string
}

// DefaultWeakPairs mirrors the paper: G22 on 1 machine through G26 on 16.
func DefaultWeakPairs() []WeakPair {
	return []WeakPair{
		{1, "G22"}, {2, "G23"}, {4, "G24"}, {8, "G25"}, {16, "G26"},
	}
}

// WeakScalingSpec declares the Figure 9 matrix: BFS and PageRank on the
// Graph500 series, machine count and dataset doubling together — one
// sweep per (machines, dataset) pair, since the two axes are coupled.
func WeakScalingSpec(cfg ExperimentConfig) BenchSpec {
	spec := BenchSpec{Name: "fig9"}
	if len(cfg.Platforms) == 0 || len(cfg.WeakPairs) == 0 {
		return spec
	}
	for _, pr := range cfg.WeakPairs {
		spec.Sweeps = append(spec.Sweeps, Sweep{
			Platforms:  cfg.Platforms,
			Datasets:   DatasetSelector{IDs: []string{pr.Dataset}},
			Algorithms: []algorithms.Algorithm{algorithms.BFS, algorithms.PR},
			Configs:    []ResourceSpec{{Threads: cfg.Threads, Machines: pr.Machines}},
		})
	}
	return spec
}

// WeakScaling (Section 4.5, Figure 9) compiles WeakScalingSpec and runs
// it. Reads Platforms, WeakPairs and Threads.
func (s *Session) WeakScaling(ctx context.Context, cfg ExperimentConfig) (*Report, error) {
	finish := s.experimentSpan("fig9")
	defer finish()
	idx, sinkErr := s.runSpec(ctx, WeakScalingSpec(cfg))
	if idx == nil {
		return nil, sinkErr
	}
	rep := &Report{
		ID:      "fig9",
		Title:   "Weak horizontal scalability: Tproc vs. machines, BFS and PR on G22..G26",
		Columns: append([]string{"algorithm", "machines", "dataset"}, cfg.Platforms...),
	}
	for _, a := range []algorithms.Algorithm{algorithms.BFS, algorithms.PR} {
		for _, pr := range cfg.WeakPairs {
			row := []string{string(a), fmt.Sprint(pr.Machines), pr.Dataset}
			for _, p := range cfg.Platforms {
				res, err := idx.get(JobSpec{Platform: p, Dataset: pr.Dataset, Algorithm: a, Threads: cfg.Threads, Machines: pr.Machines})
				if err != nil {
					return nil, err
				}
				row = append(row, cell(res))
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	rep.Notes = append(rep.Notes, "per-machine work is constant; ideal weak scaling keeps Tproc flat")
	return rep, sinkErr
}

// StressTestSpec declares the full Table 10 probe matrix: BFS on every
// catalog dataset in ascending scale order under the memory budget, for
// every platform. The StressTest method itself probes adaptively — it
// stops each platform at its first failure — so this spec exists for
// inspection and dry runs; executing it verbatim runs the whole matrix.
func StressTestSpec(cfg ExperimentConfig) BenchSpec {
	if len(cfg.Platforms) == 0 {
		return BenchSpec{Name: "table10"}
	}
	return BenchSpec{
		Name:       "table10",
		Platforms:  cfg.Platforms,
		Datasets:   DatasetSelector{MaxClass: string(metrics.Class2XL)},
		Algorithms: []algorithms.Algorithm{algorithms.BFS},
		Configs:    []ResourceSpec{{Threads: cfg.Threads, Machines: 1, MemoryPerMachine: cfg.MemoryBudget}},
	}
}

// StressTest (Section 4.6, Table 10): BFS on every dataset under a
// per-machine memory budget; reports the smallest dataset each platform
// fails to process on a single machine. Probing is sequential per
// platform — it stops at the first failure, so unlike the other
// experiments there is no static plan to schedule (StressTestSpec
// declares the unpruned matrix). Reads Platforms, Threads and
// MemoryBudget.
func (s *Session) StressTest(ctx context.Context, cfg ExperimentConfig) (*Report, error) {
	type scored struct {
		d     workload.Dataset
		scale float64
	}
	var datasets []scored
	for _, d := range workload.Catalog() {
		g, err := s.loadGraph(d)
		if err != nil {
			return nil, err
		}
		datasets = append(datasets, scored{d: d, scale: workload.Scale(g)})
	}
	slices.SortStableFunc(datasets, func(a, b scored) int { return cmp.Compare(a.scale, b.scale) })

	finish := s.experimentSpan("table10")
	defer finish()
	rep := &Report{
		ID:      "table10",
		Title:   fmt.Sprintf("Stress test: smallest dataset failing BFS on one machine (budget %d MiB)", cfg.MemoryBudget>>20),
		Columns: []string{"platform", "smallest failing dataset", "scale", "class"},
	}
	var sinkErrs []error
	for _, p := range cfg.Platforms {
		failing := "-"
		scale := "-"
		class := "-"
		for _, ds := range datasets {
			res, err := s.RunJob(ctx, JobSpec{
				Platform: p, Dataset: ds.d.ID, Algorithm: algorithms.BFS,
				Threads: cfg.Threads, Machines: 1, MemoryPerMachine: cfg.MemoryBudget,
			})
			if err != nil {
				// A failing sink must not abort the probe sweep (the job
				// itself completed); real harness errors are fatal.
				if !errors.Is(err, ErrSink) {
					return nil, err
				}
				sinkErrs = append(sinkErrs, err)
			}
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			if !res.Completed() {
				g, _ := s.loadGraph(ds.d)
				failing = ds.d.ID
				scale = fmt.Sprintf("%.1f", ds.scale)
				class = string(workload.Class(g))
				break
			}
		}
		rep.Rows = append(rep.Rows, []string{p, failing, scale, class})
	}
	rep.Notes = append(rep.Notes, "datasets probed in ascending scale order; '-' means every dataset completed")
	return rep, errors.Join(sinkErrs...)
}

// VariabilitySpec declares the Table 11 matrix: BFS repeated n times on
// D300 with one machine for the single-machine platforms, and on D1000
// with 16 machines for the distributed ones. Each platform set is its own
// sweep; repetitions of one platform share its deployment (one upload, n
// measured executions).
func VariabilitySpec(cfg ExperimentConfig) BenchSpec {
	n := cfg.Repetitions
	if n < 1 {
		n = 1
	}
	spec := BenchSpec{Name: "table11", Repetitions: n}
	if len(cfg.SingleMachine) > 0 {
		spec.Sweeps = append(spec.Sweeps, Sweep{
			Platforms:  cfg.SingleMachine,
			Datasets:   DatasetSelector{IDs: []string{"D300"}},
			Algorithms: []algorithms.Algorithm{algorithms.BFS},
			Configs:    []ResourceSpec{{Threads: cfg.Threads, Machines: 1}},
		})
	}
	if len(cfg.Distributed) > 0 {
		spec.Sweeps = append(spec.Sweeps, Sweep{
			Platforms:  cfg.Distributed,
			Datasets:   DatasetSelector{IDs: []string{"D1000"}},
			Algorithms: []algorithms.Algorithm{algorithms.BFS},
			Configs:    []ResourceSpec{{Threads: cfg.Threads, Machines: 16}},
		})
	}
	return spec
}

// Variability (Section 4.7, Table 11) compiles VariabilitySpec and runs
// it sequentially (overlapping repetitions would perturb the very timing
// distribution the experiment measures); reports mean Tproc and its
// coefficient of variation. Reads SingleMachine, Distributed, Repetitions
// and Threads.
func (s *Session) Variability(ctx context.Context, cfg ExperimentConfig) (*Report, error) {
	n := cfg.Repetitions
	if n < 1 {
		n = 1
	}
	finish := s.experimentSpan("table11")
	defer finish()
	idx, sinkErr := s.runSpec(ctx, VariabilitySpec(cfg), WithParallelism(1))
	if idx == nil {
		return nil, sinkErr
	}
	rep := &Report{
		ID:      "table11",
		Title:   fmt.Sprintf("Variability: mean Tproc and CV over %d runs of BFS", n),
		Columns: []string{"platform", "config", "mean", "CV"},
	}
	add := func(p string, machines int, dataset, label string) {
		results := idx.all(JobSpec{
			Platform: p, Dataset: dataset, Algorithm: algorithms.BFS,
			Threads: cfg.Threads, Machines: machines,
		})
		var samples []time.Duration
		for _, res := range results {
			if res.Completed() {
				samples = append(samples, res.ProcessingTime)
			}
		}
		if len(samples) == 0 {
			rep.Rows = append(rep.Rows, []string{p, label, "F", "-"})
			return
		}
		rep.Rows = append(rep.Rows, []string{
			p, label,
			fmtDuration(metrics.Mean(samples)),
			fmt.Sprintf("%.1f%%", 100*metrics.CV(samples)),
		})
	}
	for _, p := range cfg.SingleMachine {
		add(p, 1, "D300", "S (1 machine, D300)")
	}
	for _, p := range cfg.Distributed {
		add(p, 16, "D1000", "D (16 machines, D1000)")
	}
	return rep, sinkErr
}

// MakespanBreakdownSpec declares the Table 8 matrix: one BFS job on
// D300(L) per platform. An empty platform list declares an empty matrix.
func MakespanBreakdownSpec(cfg ExperimentConfig) BenchSpec {
	if len(cfg.Platforms) == 0 {
		return BenchSpec{Name: "table8"}
	}
	return BenchSpec{
		Name:       "table8",
		Platforms:  cfg.Platforms,
		Datasets:   DatasetSelector{IDs: []string{"D300"}},
		Algorithms: []algorithms.Algorithm{algorithms.BFS},
		Configs:    []ResourceSpec{{Threads: cfg.Threads, Machines: 1}},
	}
}

// MakespanBreakdown (Section 4.1, Table 8) compiles MakespanBreakdownSpec
// and runs it: makespan versus processing time for BFS on D300(L),
// exposing per-platform overhead. Every deployment has a single job, so
// each platform's upload is real, never amortized. Reads Platforms and
// Threads.
func (s *Session) MakespanBreakdown(ctx context.Context, cfg ExperimentConfig) (*Report, error) {
	finish := s.experimentSpan("table8")
	defer finish()
	idx, sinkErr := s.runSpec(ctx, MakespanBreakdownSpec(cfg))
	if idx == nil {
		return nil, sinkErr
	}
	rep := &Report{
		ID:      "table8",
		Title:   "Tproc and makespan for BFS on D300(L)",
		Columns: []string{"platform", "upload", "execute", "job makespan", "Tproc", "Tproc/makespan"},
	}
	for _, p := range cfg.Platforms {
		res, err := idx.get(JobSpec{Platform: p, Dataset: "D300", Algorithm: algorithms.BFS, Threads: cfg.Threads, Machines: 1})
		if err != nil {
			return nil, err
		}
		if !res.Completed() {
			rep.Rows = append(rep.Rows, []string{p, cell(res), "-", "-", "-", "-"})
			continue
		}
		// The paper's makespan covers the whole job, including the
		// platform-specific conversion this harness performs at upload.
		job := res.UploadTime + res.Makespan
		ratio := float64(res.ProcessingTime) / float64(job) * 100
		rep.Rows = append(rep.Rows, []string{
			p,
			fmtDuration(res.UploadTime),
			fmtDuration(res.Makespan),
			fmtDuration(job),
			fmtDuration(res.ProcessingTime),
			fmt.Sprintf("%.1f%%", ratio),
		})
	}
	rep.Notes = append(rep.Notes,
		"overhead (makespan - Tproc) covers engine setup, graph loading and output offload; the paper reports 66-99.8% overhead for JVM/cluster platforms")
	return rep, sinkErr
}
