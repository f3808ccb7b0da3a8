package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/core"
	"graphalytics/internal/platform"
	"graphalytics/internal/platforms"
	"graphalytics/internal/workload"
)

// Workload names, as BENCHMARK.json lists them.
const (
	baselineSweep    = "baseline-sweep"
	scalingTraversal = "scaling-traversal"
	daemonTenants    = "daemon-tenants"
)

// cell is one (engine, dataset, algorithm) point of an expected-status
// matrix.
type cell struct {
	platform, dataset string
	alg               algorithms.Algorithm
}

// wdef is one benchmark workload. Sweeps run specs[0] as one pass; the
// daemon workload submits specs[0] as tenant A and specs[1] as tenant B.
type wdef struct {
	name string
	// datasets are materialized at set-up, in this order.
	datasets []string
	specs    []core.BenchSpec
	// unsupported lists every cell expected to finish "unsupported";
	// every other job must finish "ok" with validated output.
	unsupported map[cell]bool
	// unitSeconds is the nominal wall time of one unit of work (a sweep
	// pass, or one run per tenant) on the reference machine. It converts
	// --seconds into a fixed amount of work, so every run of a workload
	// at one --seconds does the same work and reproduces the same
	// counters.
	unitSeconds float64
	// setupReps is how many times a run repeats the cold set-up.
	setupReps int
	// warmupUnits run before measuring and are not reported.
	warmupUnits int
	daemon      bool
	// first is the index of the tenant that submits first.
	first int
	// record is the deterministic-counter record; nil skips the check
	// (reduced self-test variants have none).
	record map[string]map[string]int64
}

// units converts a run length into a work count.
func (w *wdef) units(seconds int) int {
	return max(2, int(math.Round(float64(seconds)/w.unitSeconds)))
}

var allAlgorithms = []algorithms.Algorithm{algorithms.BFS, algorithms.PR, algorithms.WCC, algorithms.CDLP, algorithms.LCC, algorithms.SSSP}

// newWorkload builds a workload. The seed permutes the platform, dataset
// and algorithm lists of every spec (and so the deployment order), and
// for the daemon picks which tenant submits first; graph contents come
// from catalog datasets with their own fixed seeds. small selects the
// reduced variant the self-tests run.
func newWorkload(name string, seed uint64, small bool) (*wdef, error) {
	platforms.RegisterAll()
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	w := &wdef{name: name, unsupported: map[cell]bool{}, setupReps: 5, warmupUnits: 1}
	validated := core.ValidationReference
	switch name {
	case baselineSweep:
		// The paper's baseline experiment: every engine and algorithm on
		// two graphs, one machine with two threads.
		plats, algs, ds := platform.Names(), allAlgorithms, []string{"D1000", "R5"}
		if small {
			plats, algs, ds = []string{"native", "pushpull", "spmv-s"}, []algorithms.Algorithm{algorithms.BFS, algorithms.LCC, algorithms.SSSP}, []string{"R4"}
		}
		w.datasets = ds
		w.specs = []core.BenchSpec{{
			Name: name, Validation: validated,
			Platforms: perm(rng, plats), Datasets: core.DatasetSelector{IDs: perm(rng, ds)}, Algorithms: perm(rng, algs),
			Configs: []core.ResourceSpec{{Threads: 2, Machines: 1}},
		}}
		// R5 is unweighted, so no engine runs SSSP on it; push-pull has
		// no LCC and GraphMat-S no SSSP.
		for _, p := range platform.Names() {
			w.unsupported[cell{p, "R5", algorithms.SSSP}] = true
		}
		for _, d := range []string{"D1000", "R5", "R4"} {
			w.unsupported[cell{"pushpull", d, algorithms.LCC}] = true
			w.unsupported[cell{"spmv-s", d, algorithms.SSSP}] = true
		}
		w.unitSeconds = 4.3
	case scalingTraversal:
		// Strong scaling restricted to traversals: many small deployments,
		// so uploads, partitioning, rounds and modeled traffic weigh most.
		plats, ds := platforms.DistributedSet, []string{"D1000", "R5", "R6", "G26"}
		trav, weighted := []algorithms.Algorithm{algorithms.BFS, algorithms.WCC}, []string{"D1000"}
		machines := []int{2, 4, 8}
		if small {
			plats, ds, machines = []string{"pregel", "gas"}, []string{"G26"}, []int{2, 4}
			weighted = []string{"D300"}
		}
		var cfgs []core.ResourceSpec
		for _, m := range machines {
			cfgs = append(cfgs, core.ResourceSpec{Threads: 1, Machines: m})
		}
		w.datasets = slices.Clone(ds)
		for _, d := range weighted {
			if !slices.Contains(ds, d) {
				w.datasets = append(w.datasets, d)
			}
		}
		w.specs = []core.BenchSpec{{
			Name: name, Validation: validated,
			Sweeps: []core.Sweep{
				{Platforms: perm(rng, plats), Datasets: core.DatasetSelector{IDs: perm(rng, ds)}, Algorithms: perm(rng, trav), Configs: cfgs},
				{Platforms: perm(rng, plats), Datasets: core.DatasetSelector{IDs: weighted}, Algorithms: []algorithms.Algorithm{algorithms.SSSP}, Configs: cfgs},
			},
		}}
		w.unitSeconds = 3.0
	case daemonTenants:
		// Two tenants on one in-process daemon with one run slot: A's wide
		// sweep over tiny graphs and B's short runs, which wait behind A.
		aPlats, aDs, aAlgs := []string{"native", "pregel", "gas", "spmv-s"}, []string{"R4", "G23", "D100"}, []algorithms.Algorithm{algorithms.BFS, algorithms.PR, algorithms.WCC, algorithms.CDLP}
		bPlats, bDs, bAlgs := []string{"native", "pushpull"}, []string{"D300"}, []algorithms.Algorithm{algorithms.BFS, algorithms.WCC, algorithms.SSSP}
		w.datasets = nil
		for _, d := range workload.Catalog() {
			w.datasets = append(w.datasets, d.ID)
		}
		if small {
			aPlats, aDs, aAlgs = []string{"native", "spmv-s"}, []string{"R4"}, []algorithms.Algorithm{algorithms.BFS, algorithms.PR}
			bPlats, bAlgs = []string{"native"}, []algorithms.Algorithm{algorithms.BFS, algorithms.SSSP}
			w.datasets = []string{"R4", "D300"}
		}
		w.specs = []core.BenchSpec{
			{Name: "tenant-a", Validation: validated, Platforms: perm(rng, aPlats), Datasets: core.DatasetSelector{IDs: perm(rng, aDs)}, Algorithms: perm(rng, aAlgs)},
			{Name: "tenant-b", Validation: validated, Platforms: perm(rng, bPlats), Datasets: core.DatasetSelector{IDs: perm(rng, bDs)}, Algorithms: perm(rng, bAlgs)},
		}
		w.first = rng.IntN(2)
		w.daemon = true
		w.unitSeconds = 0.085
		w.setupReps = 5
		w.warmupUnits = 3
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, baselineSweep, scalingTraversal, daemonTenants)
	}
	if small {
		w.setupReps, w.warmupUnits = 2, 1
	} else {
		rec, ok := counterRecords[name]
		if !ok {
			return nil, fmt.Errorf("no counter record for workload %q", name)
		}
		w.record = rec
	}
	return w, nil
}

func perm[T any](rng *rand.Rand, xs []T) []T {
	out := slices.Clone(xs)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// expectedStatus returns the status a job of the workload must finish
// with.
func (w *wdef) expectedStatus(j core.JobSpec) core.Status {
	if w.unsupported[cell{j.Platform, j.Dataset, j.Algorithm}] {
		return core.StatusUnsupported
	}
	return core.StatusOK
}

// checkJob returns a description of what is wrong with a job result, or
// "" when it has its expected status and, if ok, validated output.
func (w *wdef) checkJob(r core.JobResult) string {
	want := w.expectedStatus(r.Spec)
	switch {
	case r.Status != want:
		return fmt.Sprintf("%s/%s/%s m=%d: status %q (want %q) %s", r.Spec.Platform, r.Spec.Dataset, r.Spec.Algorithm, r.Spec.Machines, r.Status, want, r.Error)
	case want == core.StatusOK && !(r.Validated && r.ValidationOK):
		return fmt.Sprintf("%s/%s/%s m=%d: output not validated", r.Spec.Platform, r.Spec.Dataset, r.Spec.Algorithm, r.Spec.Machines)
	}
	return ""
}

// counterRecords holds every workload's deterministic counters: per
// set-up ("setup"), per sweep pass ("pass") and per daemon run of each
// tenant ("tenant-a", "tenant-b"). A run that does not reproduce them
// exactly measured different work and fails.
//
//go:embed counters.json
var countersJSON []byte

var counterRecords = func() map[string]map[string]map[string]int64 {
	var m map[string]map[string]map[string]int64
	if err := json.Unmarshal(countersJSON, &m); err != nil {
		panic(fmt.Sprintf("counters.json: %v", err))
	}
	return m
}()

// counters are the deterministic work counts of one unit.
type counters map[string]int64

// check compares observed counters of a unit against the record; keys
// the unit could not observe are skipped, keys the record lacks fail.
func (w *wdef) checkCounters(unit string, got counters) []string {
	if w.record == nil {
		return nil
	}
	want, ok := w.record[unit]
	if !ok {
		return []string{fmt.Sprintf("counter record has no unit %q", unit)}
	}
	var bad []string
	for _, k := range sortedKeys(got) {
		if wv, ok := want[k]; !ok || wv != got[k] {
			bad = append(bad, fmt.Sprintf("%s counter %s = %d, record says %d", unit, k, got[k], wv))
		}
	}
	return bad
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (c counters) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range sortedKeys(c) {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q: %d", k, c[k])
	}
	b.WriteByte('}')
	return b.String()
}
