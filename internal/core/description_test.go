package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"graphalytics/internal/algorithms"
	"graphalytics/internal/core"
)

func TestDescriptionJobsExpansion(t *testing.T) {
	d := &core.Description{
		Name:       "mini",
		Platforms:  []string{"native", "spmv-s"},
		Datasets:   []string{"R1", "R2"},
		Algorithms: []algorithms.Algorithm{algorithms.BFS, algorithms.PR},
		Threads:    2,
	}
	jobs, err := d.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 8 {
		t.Fatalf("expanded to %d jobs, want 2*2*2", len(jobs))
	}
	d.Repetitions = 3
	jobs, err = d.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 24 {
		t.Fatalf("with repetitions: %d jobs, want 24", len(jobs))
	}
}

func TestDescriptionDefaults(t *testing.T) {
	jobs, err := (&core.Description{Name: "all"}).Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// 7 platforms x 16 datasets x 6 algorithms.
	if len(jobs) != 7*16*6 {
		t.Fatalf("default expansion = %d jobs, want %d", len(jobs), 7*16*6)
	}
}

func TestDescriptionValidate(t *testing.T) {
	bad := []core.Description{
		{Name: "p", Platforms: []string{"nope"}},
		{Name: "d", Datasets: []string{"nope"}},
		{Name: "a", Algorithms: []algorithms.Algorithm{"NOPE"}},
		{Name: "r", Repetitions: -1},
	}
	for _, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("description %q should fail validation", d.Name)
		}
	}
}

func TestDescriptionJSONRoundTrip(t *testing.T) {
	d := &core.Description{
		Name:      "rt",
		Platforms: []string{"gas"},
		Datasets:  []string{"D300"},
		Threads:   4,
		Machines:  2,
		SLA:       30 * time.Second,
	}
	var buf bytes.Buffer
	if err := core.WriteDescription(&buf, d); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "desc.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := core.LoadDescription(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != d.Name || back.Threads != d.Threads || back.SLA != d.SLA ||
		len(back.Platforms) != 1 || back.Platforms[0] != "gas" {
		t.Fatalf("round trip changed the description: %+v", back)
	}
}

func TestLoadDescriptionMissing(t *testing.T) {
	if _, err := core.LoadDescription("/nonexistent.json"); err == nil {
		t.Fatal("expected error for missing description file")
	}
}
