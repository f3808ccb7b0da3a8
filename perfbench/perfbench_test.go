package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// TestReducedWorkloads runs the reduced variant of every workload,
// untraced and traced: each must finish with no failed job, run or
// check, emit every metric with its unit, and leave properly nested
// spans with non-negative self times.
func TestReducedWorkloads(t *testing.T) {
	for _, name := range []string{baselineSweep, scalingTraversal, daemonTenants} {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				cfg := config{workload: name, seed: 7, seconds: 1, trace: traced, work: t.TempDir(), small: true}
				rep, err := benchmark(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if rep.tally.failed != 0 || rep.tally.attempted == 0 {
					t.Fatalf("failed %d of %d: %v", rep.tally.failed, rep.tally.attempted, rep.tally.problems)
				}
				line, err := rep.result(traced)
				if err != nil {
					t.Fatal(err)
				}
				var out struct {
					Correct bool `json:"correct"`
					Metrics map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal(line, &out); err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if !out.Correct || len(out.Metrics) != len(defs) {
					t.Fatalf("correct=%v with %d metrics, want %d", out.Correct, len(out.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := out.Metrics[d.name]
					if !ok || m.Value == nil || m.Unit != d.unit {
						t.Errorf("metric %s: %+v, want unit %s", d.name, m, d.unit)
					}
				}
				if !traced {
					for _, n := range []string{"setup_s", "wall_s", "job_geomean_ms", "submit_to_done_p50_ms", "peak_rss_mb"} {
						if *out.Metrics[n].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", n, *out.Metrics[n].Value)
						}
					}
					return
				}
				if len(rep.spans) == 0 {
					t.Fatal("traced run recorded no spans")
				}
				if bad := checkSpans(rep.spans); len(bad) > 0 {
					t.Fatalf("bad spans: %v", bad)
				}
			})
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the workloads and metrics the
// program emits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		if _, err := newWorkload(w.Name, 1, true); err != nil {
			t.Error(err)
		}
		names = append(names, w.Name)
	}
	if want := []string{baselineSweep, scalingTraversal, daemonTenants}; !slices.Equal(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, program emits %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, program emits %v", i, m, endToEnd[i])
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, program emits %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %+v, program emits %v", i, m, perLayer[i])
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Trace: 1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Trace: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Trace: 1, Name: "b", Start: 30 * ms, End: 50 * ms}, // overlaps a
		{ID: 4, Parent: 2, Trace: 1, Name: "c", Start: 20 * ms, End: 25 * ms},
	}
	selfTimes(spans)
	for i, want := range []time.Duration{60 * ms, 25 * ms, 20 * ms, 5 * ms} {
		if spans[i].Self != want {
			t.Errorf("%s self = %v, want %v", spans[i].Name, spans[i].Self, want)
		}
	}
	if bad := checkSpans(spans); len(bad) > 0 {
		t.Errorf("well-nested spans reported: %v", bad)
	}
	spans[3].End = 45 * ms // c now outlives its parent a
	selfTimes(spans)
	if bad := checkSpans(spans); len(bad) != 1 {
		t.Errorf("want one nesting problem, got %v", bad)
	}
}
