package graphalytics_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"graphalytics"
)

func toyGraph(t *testing.T) *graphalytics.Graph {
	t.Helper()
	g, err := graphalytics.FromEdges("toy", false, true, []graphalytics.Edge{
		{Src: 1, Dst: 2, Weight: 1},
		{Src: 2, Dst: 3, Weight: 2},
		{Src: 3, Dst: 1, Weight: 3},
		{Src: 3, Dst: 4, Weight: 1},
	}, graphalytics.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFacadeRunAllPlatformsAgree(t *testing.T) {
	g := toyGraph(t)
	params := graphalytics.Params{Source: 1, Iterations: 5}
	for _, a := range graphalytics.Algorithms {
		want, err := graphalytics.Reference(g, a, params)
		if err != nil {
			t.Fatalf("%s reference: %v", a, err)
		}
		for _, name := range graphalytics.Platforms() {
			p, err := graphalytics.PlatformByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if !p.Supports(a) {
				continue
			}
			res, err := graphalytics.Run(context.Background(), name, g, a, params,
				graphalytics.RunConfig{Threads: 2})
			if err != nil {
				t.Fatalf("%s on %s: %v", a, name, err)
			}
			if rep := graphalytics.Validate(res.Output, want, g); !rep.OK {
				t.Fatalf("%s on %s: %v", a, name, rep.Error())
			}
		}
	}
}

func TestFacadeRunUnknownPlatform(t *testing.T) {
	g := toyGraph(t)
	if _, err := graphalytics.Run(context.Background(), "bogus", g, graphalytics.BFS,
		graphalytics.Params{Source: 1}, graphalytics.RunConfig{}); err == nil {
		t.Fatal("expected error for unknown platform")
	}
}

func TestFacadeRunWithBudget(t *testing.T) {
	g := toyGraph(t)
	run := func(budget time.Duration) (*graphalytics.Result, error) {
		return graphalytics.RunWithBudget(t.Context(), "native", g, graphalytics.BFS,
			graphalytics.Params{Source: 1}, graphalytics.RunConfig{Threads: 1}, budget)
	}
	res, err := run(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProcessingTime <= 0 {
		t.Fatal("expected positive processing time")
	}
	// A zero budget has expired before upload starts.
	if _, err := run(0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("zero budget: err = %v, want context.DeadlineExceeded", err)
	}
}

func TestFacadePaperNames(t *testing.T) {
	want := map[string]string{
		"pregel":   "Giraph",
		"dataflow": "GraphX",
		"gas":      "PowerGraph",
		"spmv-s":   "GraphMat(S)",
		"spmv-d":   "GraphMat(D)",
		"native":   "OpenG",
		"pushpull": "PGX.D",
	}
	for engine, paper := range want {
		if got := graphalytics.PaperName(engine); got != paper {
			t.Errorf("PaperName(%s) = %s, want %s", engine, got, paper)
		}
	}
	if graphalytics.PaperName("unknown") != "unknown" {
		t.Error("unknown engines map to themselves")
	}
}

func TestFacadePlatformSets(t *testing.T) {
	if len(graphalytics.Platforms()) != 7 {
		t.Fatalf("registered platforms = %v, want 7", graphalytics.Platforms())
	}
	if len(graphalytics.SingleMachinePlatforms()) != 6 {
		t.Fatalf("single-machine set = %v, want 6", graphalytics.SingleMachinePlatforms())
	}
	if len(graphalytics.DistributedPlatforms()) != 5 {
		t.Fatalf("distributed set = %v, want 5", graphalytics.DistributedPlatforms())
	}
}

func TestFacadeDatasets(t *testing.T) {
	ds := graphalytics.Datasets()
	if len(ds) != 16 {
		t.Fatalf("catalog has %d datasets, want 16 (6 real + 10 synthetic)", len(ds))
	}
	g, err := graphalytics.LoadDataset("R1")
	if err != nil {
		t.Fatal(err)
	}
	if graphalytics.GraphScale(g) <= 0 || graphalytics.DatasetClass(g) == "" {
		t.Fatal("scale and class must be derivable")
	}
}

func TestFacadeGenerators(t *testing.T) {
	res, err := graphalytics.GenerateSocialNetwork(graphalytics.DatagenConfig{ScaleFactor: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumEdges() == 0 {
		t.Fatal("datagen produced no edges")
	}
	g, err := graphalytics.GenerateGraph500(graphalytics.Graph500Config{Scale: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 64 {
		t.Fatalf("graph500 |V| = %d, want 64", g.NumVertices())
	}
}

func TestFacadeSaveLoadGraph(t *testing.T) {
	g := toyGraph(t)
	dir := t.TempDir()
	if err := graphalytics.SaveGraph(g, dir+"/g.v", dir+"/g.e"); err != nil {
		t.Fatal(err)
	}
	back, err := graphalytics.LoadGraph(dir+"/g.v", dir+"/g.e", false, true)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatal("graph changed across save/load")
	}
}

func TestFacadeSessionRunAll(t *testing.T) {
	var finished int
	s := graphalytics.NewSession(
		graphalytics.WithSLA(2*time.Minute),
		graphalytics.WithParallelism(4),
		graphalytics.WithObserver(graphalytics.ObserverFunc(func(e graphalytics.Event) {
			if e.Type == graphalytics.EventJobFinished {
				finished++ // Observe calls are serialized by the session
			}
		})),
	)
	specs := []graphalytics.JobSpec{
		{Platform: "native", Dataset: "R1", Algorithm: graphalytics.BFS, Threads: 2, Machines: 1},
		{Platform: "spmv-s", Dataset: "R1", Algorithm: graphalytics.PR, Threads: 2, Machines: 1},
		{Platform: "native", Dataset: "R2", Algorithm: graphalytics.WCC, Threads: 2, Machines: 1},
	}
	results, err := s.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Spec != specs[i] {
			t.Fatalf("result %d out of order", i)
		}
		if res.Status != graphalytics.StatusOK {
			t.Fatalf("result %d: status %s (%s)", i, res.Status, res.Error)
		}
		if !res.Status.Terminal() {
			t.Fatalf("result %d: non-terminal status", i)
		}
	}
	if finished != len(specs) {
		t.Fatalf("observer saw %d finished jobs, want %d", finished, len(specs))
	}
	if s.DB().Len() != len(specs) {
		t.Fatalf("results DB has %d records, want %d", s.DB().Len(), len(specs))
	}
}

func TestFacadeStatusExports(t *testing.T) {
	// StatusInvalid and StatusCanceled are part of the facade surface; a
	// compile-time check plus the Terminal/String helpers.
	for _, s := range []graphalytics.Status{graphalytics.StatusInvalid, graphalytics.StatusCanceled} {
		if !s.Terminal() || s.String() == "" {
			t.Errorf("status %q: Terminal=%v String=%q", s, s.Terminal(), s.String())
		}
	}
}

func TestFacadeRenewal(t *testing.T) {
	class, err := graphalytics.RenewClassL("native", 4, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if class != "XL" {
		t.Fatalf("with a generous budget class L should re-derive to XL, got %s", class)
	}
}

func TestFacadeGraphStoreAndSnapshots(t *testing.T) {
	dir := t.TempDir()
	st := graphalytics.NewGraphStore(graphalytics.GraphStoreOptions{Dir: dir})
	g, err := graphalytics.LoadDatasetFrom(st, "R1")
	if err != nil {
		t.Fatal(err)
	}
	// A fresh store over the same dir loads the snapshot; the facade's
	// snapshot helpers read the same file format.
	st2 := graphalytics.NewGraphStore(graphalytics.GraphStoreOptions{Dir: dir})
	g2, err := graphalytics.LoadDatasetFrom(st2, "R1")
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NumVertices() != g.NumVertices() {
		t.Fatal("snapshot round trip changed the dataset")
	}
	path := dir + "/manual.gsnap"
	if err := graphalytics.SaveGraphSnapshot(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := graphalytics.LoadGraphSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatal("manual snapshot changed the graph")
	}
}

func TestFacadeWarmCatalogAndCacheDirSession(t *testing.T) {
	dir := t.TempDir()
	st := graphalytics.NewGraphStore(graphalytics.GraphStoreOptions{Dir: dir})
	if err := graphalytics.WarmCatalog(context.Background(), st, 4, nil); err != nil {
		t.Fatal(err)
	}
	// A session over the warmed cache dir must not generate anything.
	var badSources []string
	s := graphalytics.NewSession(
		graphalytics.WithCacheDir(dir),
		graphalytics.WithObserver(graphalytics.ObserverFunc(func(e graphalytics.Event) {
			if e.Type == graphalytics.EventDatasetMaterialized && e.Source == string(graphalytics.SourceBuilt) {
				badSources = append(badSources, e.Dataset)
			}
		})),
	)
	res, err := s.RunJob(context.Background(), graphalytics.JobSpec{
		Platform: "native", Dataset: "D300", Algorithm: graphalytics.BFS, Threads: 2, Machines: 1,
	})
	if err != nil || res.Status != graphalytics.StatusOK {
		t.Fatalf("status=%v err=%v", res.Status, err)
	}
	if len(badSources) > 0 {
		t.Fatalf("warmed session regenerated %v", badSources)
	}
}
