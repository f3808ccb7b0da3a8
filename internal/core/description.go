package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/platform"
	"graphalytics/internal/workload"
)

// Description is the benchmark description (component 1 of the
// architecture in Figure 1): the declarative input the Graphalytics team
// provides, selecting algorithms, datasets and parameters, combined with
// the user's configuration (component 2) selecting platforms, resources
// and SLA. The harness processes a Description and orchestrates the
// resulting jobs.
type Description struct {
	// Name labels the run in reports and results.
	Name string `json:"name"`
	// Platforms lists the engines under test; empty selects every
	// registered platform.
	Platforms []string `json:"platforms,omitempty"`
	// Datasets lists catalog dataset IDs; empty selects the full catalog.
	Datasets []string `json:"datasets,omitempty"`
	// Algorithms lists the algorithms to run; empty selects all six.
	Algorithms []algorithms.Algorithm `json:"algorithms,omitempty"`
	// Threads and Machines configure the system under test (zero means 1).
	Threads  int `json:"threads,omitempty"`
	Machines int `json:"machines,omitempty"`
	// MemoryPerMachine bounds engine memory (bytes); zero means unlimited.
	MemoryPerMachine int64 `json:"memory_per_machine,omitempty"`
	// SLA is the per-job makespan budget; zero selects the runner's.
	SLA time.Duration `json:"sla,omitempty"`
	// Repetitions repeats every job (for variability analysis); zero
	// means 1.
	Repetitions int `json:"repetitions,omitempty"`
}

// Validate checks the description against the registry and catalog before
// any job runs, so configuration errors surface immediately.
func (d *Description) Validate() error {
	for _, p := range d.Platforms {
		if _, err := platform.Get(p); err != nil {
			return fmt.Errorf("core: description %q: %w", d.Name, err)
		}
	}
	for _, ds := range d.Datasets {
		if _, err := workload.ByID(ds); err != nil {
			return fmt.Errorf("core: description %q: %w", d.Name, err)
		}
	}
	known := map[algorithms.Algorithm]bool{}
	for _, a := range algorithms.All {
		known[a] = true
	}
	for _, a := range d.Algorithms {
		if !known[a] {
			return fmt.Errorf("core: description %q: %w: %q", d.Name, algorithms.ErrUnknownAlgorithm, a)
		}
	}
	if d.Repetitions < 0 || d.Threads < 0 || d.Machines < 0 {
		return fmt.Errorf("core: description %q: negative resource counts", d.Name)
	}
	return nil
}

// Jobs expands the description into the concrete job matrix.
func (d *Description) Jobs() ([]JobSpec, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	platforms := d.Platforms
	if len(platforms) == 0 {
		platforms = platform.Names()
	}
	datasets := d.Datasets
	if len(datasets) == 0 {
		for _, ds := range workload.Catalog() {
			datasets = append(datasets, ds.ID)
		}
	}
	algs := d.Algorithms
	if len(algs) == 0 {
		algs = algorithms.All
	}
	reps := d.Repetitions
	if reps < 1 {
		reps = 1
	}
	var jobs []JobSpec
	for _, p := range platforms {
		for _, ds := range datasets {
			for _, a := range algs {
				for rep := 0; rep < reps; rep++ {
					jobs = append(jobs, JobSpec{
						Platform:         p,
						Dataset:          ds,
						Algorithm:        a,
						Threads:          d.Threads,
						Machines:         d.Machines,
						MemoryPerMachine: d.MemoryPerMachine,
						SLA:              d.SLA,
					})
				}
			}
		}
	}
	return jobs, nil
}

// Compile expands the description into an executable Plan: the job
// matrix in matrix order, grouped into deployments so every
// (platform, dataset) pair uploads once for all its algorithms and
// repetitions. A Description is the legacy single-sweep ancestor of
// BenchSpec; new code should write specs.
func (d *Description) Compile() (*Plan, error) {
	jobs, err := d.Jobs()
	if err != nil {
		return nil, err
	}
	return PlanFromSpecs(d.Name, jobs), nil
}

// RunDescription compiles the description and executes its plan through
// the session's scheduler, returning one result per job in matrix order
// regardless of the session's parallelism. Jobs sharing a
// (platform, dataset, resources) deployment share one upload; pass
// WithUploadSharing(false) at session construction to restore per-job
// uploads.
func (s *Session) RunDescription(ctx context.Context, d *Description) ([]JobResult, error) {
	plan, err := d.Compile()
	if err != nil {
		return nil, err
	}
	return s.RunPlan(ctx, plan)
}

// WriteDescription serializes a description as JSON.
func WriteDescription(w io.Writer, d *Description) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("core: encode description: %w", err)
	}
	return nil
}

// LoadDescription reads a JSON benchmark description from a file.
func LoadDescription(path string) (*Description, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: open description: %w", err)
	}
	defer f.Close()
	var d Description
	if err := json.NewDecoder(f).Decode(&d); err != nil {
		return nil, fmt.Errorf("core: decode description: %w", err)
	}
	return &d, nil
}
