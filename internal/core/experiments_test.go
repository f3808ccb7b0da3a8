package core_test

import (
	"strings"
	"testing"
	"time"

	"graphalytics/internal/core"
)

// fastPlatforms keeps experiment integration tests quick while still
// covering a single-machine and a distributed engine.
var fastPlatforms = []string{"native", "spmv-s"}

// newTestSession returns a sequential session with a generous SLA, so
// experiment tests time one job at a time like the paper's runs.
func newTestSession(opts ...core.Option) *core.Session {
	return core.NewSession(append([]core.Option{core.WithSLA(2 * time.Minute), core.WithParallelism(1)}, opts...)...)
}

func renderOK(t *testing.T, rep *core.Report) string {
	t.Helper()
	if rep == nil {
		t.Fatal("nil report")
	}
	var sb strings.Builder
	if err := rep.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestDatasetVarietyExperiment(t *testing.T) {
	s := newTestSession()
	rep, err := s.DatasetVariety(t.Context(), core.ExperimentConfig{Platforms: fastPlatforms, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := renderOK(t, rep)
	// Datasets up to class L: the XL graphs must be absent.
	for _, banned := range []string{"R5", "R6", "D1000", "G26"} {
		if strings.Contains(out, banned) {
			t.Errorf("class-XL dataset %s leaked into the up-to-L selection", banned)
		}
	}
	for _, want := range []string{"R1", "D300", "G25", "BFS", "PR"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig4 output missing %s:\n%s", want, out)
		}
	}
	// Every job in the DB must have validated output.
	for _, res := range s.DB().All() {
		if res.Status == core.StatusOK && !res.ValidationOK {
			t.Errorf("unvalidated OK result: %+v", res.Spec)
		}
	}
}

func TestThroughputReport(t *testing.T) {
	s := newTestSession()
	if _, err := s.DatasetVariety(t.Context(), core.ExperimentConfig{Platforms: fastPlatforms, Threads: 2}); err != nil {
		t.Fatal(err)
	}
	rep := core.ThroughputReport(s.DB(), fastPlatforms)
	out := renderOK(t, rep)
	if !strings.Contains(out, "/s") {
		t.Fatalf("fig5 output has no rates:\n%s", out)
	}
}

func TestAlgorithmVarietyExperiment(t *testing.T) {
	s := newTestSession()
	rep, err := s.AlgorithmVariety(t.Context(), core.ExperimentConfig{Platforms: []string{"native", "spmv-s", "pushpull"}, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := renderOK(t, rep)
	// The pushpull engine has no LCC: the row must show N/A, matching the
	// paper's Figure 6 marker for PGX.D.
	if !strings.Contains(out, "N/A") {
		t.Errorf("expected N/A for pushpull LCC:\n%s", out)
	}
	// SSSP on the shared-memory matrix backend must be substituted by the
	// distributed backend and marked, as in the paper.
	if !strings.Contains(out, "(D)") {
		t.Errorf("expected the (D) backend marker for spmv SSSP:\n%s", out)
	}
}

func TestVerticalScalabilityAndSpeedup(t *testing.T) {
	s := newTestSession()
	if _, err := s.VerticalScalability(t.Context(), core.ExperimentConfig{Platforms: []string{"native"}, ThreadSweep: []int{1, 4}}); err != nil {
		t.Fatal(err)
	}
	rep := core.VerticalSpeedupReport(s.DB(), []string{"native"})
	out := renderOK(t, rep)
	if !strings.Contains(out, "BFS") || !strings.Contains(out, "PR") {
		t.Fatalf("table9 output incomplete:\n%s", out)
	}
}

func TestStrongScalingExperiment(t *testing.T) {
	s := newTestSession()
	rep, err := s.StrongScaling(t.Context(), core.ExperimentConfig{Platforms: []string{"spmv-d"}, MachineSweep: []int{1, 4}, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	renderOK(t, rep)
	// Distributed 4-machine runs must be present and OK.
	found := false
	for _, res := range s.DB().Query(core.Filter{Platform: "spmv-d", Machines: 4}) {
		if res.Status == core.StatusOK {
			found = true
			if res.NetworkTime <= 0 {
				t.Error("4-machine run should accumulate modeled network time")
			}
		}
	}
	if !found {
		t.Fatal("no successful 4-machine runs recorded")
	}
}

func TestWeakScalingExperiment(t *testing.T) {
	s := newTestSession()
	pairs := []core.WeakPair{{Machines: 1, Dataset: "G22"}, {Machines: 2, Dataset: "G23"}}
	rep, err := s.WeakScaling(t.Context(), core.ExperimentConfig{Platforms: []string{"spmv-d"}, WeakPairs: pairs, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := renderOK(t, rep)
	if !strings.Contains(out, "G23") {
		t.Fatalf("fig9 output missing the scaled dataset:\n%s", out)
	}
}

func TestStressTestExperiment(t *testing.T) {
	s := newTestSession(core.WithValidation(false))
	// A 200 KiB budget forces every engine to fail somewhere in the
	// catalog while still completing the smallest graphs.
	rep, err := s.StressTest(t.Context(), core.ExperimentConfig{Platforms: []string{"native", "dataflow"}, Threads: 2, MemoryBudget: 200 << 10})
	if err != nil {
		t.Fatal(err)
	}
	out := renderOK(t, rep)
	for _, p := range []string{"native", "dataflow"} {
		if !strings.Contains(out, p) {
			t.Errorf("table10 missing platform %s", p)
		}
	}
	// The dataflow engine's representation is larger per edge, so its
	// failure point must not come later than native's.
	failRow := func(p string) string {
		for _, row := range rep.Rows {
			if row[0] == p {
				return row[1]
			}
		}
		return ""
	}
	if failRow("native") == "-" && failRow("dataflow") == "-" {
		t.Error("200 KiB budget should force at least one failure")
	}
}

func TestVariabilityExperiment(t *testing.T) {
	s := newTestSession()
	rep, err := s.Variability(t.Context(), core.ExperimentConfig{SingleMachine: []string{"native"}, Distributed: []string{"spmv-d"}, Repetitions: 3, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := renderOK(t, rep)
	if !strings.Contains(out, "%") {
		t.Fatalf("table11 output has no CV percentages:\n%s", out)
	}
}

func TestMakespanBreakdownExperiment(t *testing.T) {
	s := newTestSession()
	rep, err := s.MakespanBreakdown(t.Context(), core.ExperimentConfig{Platforms: fastPlatforms, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := renderOK(t, rep)
	if !strings.Contains(out, "%") {
		t.Fatalf("table8 output has no ratios:\n%s", out)
	}
}

func TestDataGenerationExperiment(t *testing.T) {
	rep, err := core.DataGeneration([]float64{1, 3}, []int{1, 2}, 300)
	if err != nil {
		t.Fatal(err)
	}
	out := renderOK(t, rep)
	if !strings.Contains(out, "x") { // speedup column
		t.Fatalf("fig10 output has no speedups:\n%s", out)
	}
}

func TestStepBreakdownExperiment(t *testing.T) {
	rep, err := core.StepBreakdown(2, 300)
	if err != nil {
		t.Fatal(err)
	}
	out := renderOK(t, rep)
	for _, want := range []string{"old", "new", "merge"} {
		if !strings.Contains(out, want) {
			t.Errorf("step breakdown missing %q:\n%s", want, out)
		}
	}
}

func TestResultsDBRoundTrip(t *testing.T) {
	s := newTestSession()
	if _, err := s.MakespanBreakdown(t.Context(), core.ExperimentConfig{Platforms: []string{"native"}, Threads: 1}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/results.jsonl"
	if err := s.DB().Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := core.LoadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != s.DB().Len() {
		t.Fatalf("round trip lost results: %d vs %d", back.Len(), s.DB().Len())
	}
	orig, loaded := s.DB().All()[0], back.All()[0]
	if orig.Spec != loaded.Spec || orig.Status != loaded.Status || orig.ProcessingTime != loaded.ProcessingTime {
		t.Fatalf("record changed in round trip:\n%+v\n%+v", orig, loaded)
	}
}

func TestResultsDBQuery(t *testing.T) {
	db := core.NewResultsDB()
	db.Add(core.JobResult{Spec: core.JobSpec{Platform: "a", Dataset: "x", Machines: 1}, Status: core.StatusOK})
	db.Add(core.JobResult{Spec: core.JobSpec{Platform: "b", Dataset: "x", Machines: 2}, Status: core.StatusOOM})
	if got := len(db.Query(core.Filter{Platform: "a"})); got != 1 {
		t.Fatalf("platform filter: %d", got)
	}
	if got := len(db.Query(core.Filter{Dataset: "x"})); got != 2 {
		t.Fatalf("dataset filter: %d", got)
	}
	if got := len(db.Query(core.Filter{Status: core.StatusOOM, Machines: 2})); got != 1 {
		t.Fatalf("combined filter: %d", got)
	}
	if got := len(db.Query(core.Filter{Platform: "c"})); got != 0 {
		t.Fatalf("no-match filter: %d", got)
	}
}

func TestLoadResultsMissingFile(t *testing.T) {
	if _, err := core.LoadResults("/nonexistent/results.jsonl"); err == nil {
		t.Fatal("expected error for missing file")
	}
}
