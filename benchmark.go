package graphalytics

import (
	"context"
	"time"

	"graphalytics/internal/cluster"
	"graphalytics/internal/core"
	"graphalytics/internal/datagen"
	"graphalytics/internal/graph500"
	"graphalytics/internal/metrics"
	"graphalytics/internal/platforms"
	"graphalytics/internal/workload"
)

// Session is the harness's single entry point: a context-first
// orchestrator that runs benchmark jobs with SLA enforcement,
// single-flighted reference validation, a results database, a
// bounded-parallelism scheduler (RunAll, RunPlan) and a streaming
// progress Observer. Construct one with NewSession and functional
// options; see DESIGN.md for the full API.
type Session = core.Session

// Option configures a Session (or one RunAll batch).
type Option = core.Option

// ExperimentConfig parameterizes the experiment suites run through a
// Session (platform sets, resource axes, experiment-specific knobs).
type ExperimentConfig = core.ExperimentConfig

// NewSession returns a session with validation on, the default network
// model, a fresh results database and GOMAXPROCS parallelism, overridden
// by the given options.
func NewSession(opts ...Option) *Session { return core.NewSession(opts...) }

// Functional options for NewSession and Session.RunAll.
func WithSLA(d time.Duration) Option            { return core.WithSLA(d) }
func WithValidation(on bool) Option             { return core.WithValidation(on) }
func WithNetwork(n cluster.NetworkModel) Option { return core.WithNetwork(n) }
func WithResultsDB(db *core.ResultsDB) Option   { return core.WithResultsDB(db) }
func WithParallelism(n int) Option              { return core.WithParallelism(n) }
func WithReferenceParallelism(n int) Option     { return core.WithReferenceParallelism(n) }
func WithObserver(o Observer) Option            { return core.WithObserver(o) }

// NetworkModel is the interconnect model distributed jobs are charged
// against; DefaultNetwork approximates the paper's testbed baseline.
type NetworkModel = cluster.NetworkModel

// DefaultNetwork returns the paper-testbed interconnect model.
func DefaultNetwork() NetworkModel { return cluster.DefaultNetwork() }

// Observer receives a session's streaming progress events; Event and
// EventType describe the stream. The session serializes Observe calls,
// stamps every event with a gap-free per-session sequence number and
// timestamp, and recovers observer panics (see core.Observer for the
// full delivery contract).
type (
	Observer     = core.Observer
	ObserverFunc = core.ObserverFunc
	Event        = core.Event
	EventType    = core.EventType
)

// BufferedObserver decouples a slow event consumer from the session's
// synchronous delivery: events are forwarded in order through a bounded
// buffer and dropped (counted, never blocking the run) on overflow.
type BufferedObserver = core.BufferedObserver

// NewBufferedObserver wraps target with a drop-on-overflow buffer.
func NewBufferedObserver(target Observer, size int) *BufferedObserver {
	return core.NewBufferedObserver(target, size)
}

// MultiObserver fans one event stream out to several observers.
func MultiObserver(obs ...Observer) Observer { return core.MultiObserver(obs...) }

// The event stream: per-job start/finish, per-experiment phase,
// per-dataset materialization and per-deployment upload events.
const (
	EventJobStarted          = core.EventJobStarted
	EventJobFinished         = core.EventJobFinished
	EventExperimentStarted   = core.EventExperimentStarted
	EventExperimentFinished  = core.EventExperimentFinished
	EventDatasetMaterialized = core.EventDatasetMaterialized
	EventDeploymentUploaded  = core.EventDeploymentUploaded
)

// JobSpec is one benchmark job; JobResult one results-database record.
type (
	JobSpec   = core.JobSpec
	JobResult = core.JobResult
)

// Report is a rendered experiment outcome (one paper figure or table).
type Report = core.Report

// ResultsDB is the harness's results database.
type ResultsDB = core.ResultsDB

// Description is a declarative benchmark description: the job matrix the
// harness expands and schedules (component 1 of Figure 1).
type Description = core.Description

// Status classifies the outcome of a job; it is terminal for every
// defined value (Status.Terminal) and renders via Status.String.
type Status = core.Status

// Job statuses.
const (
	StatusOK          = core.StatusOK
	StatusSLABreak    = core.StatusSLABreak
	StatusOOM         = core.StatusOOM
	StatusFailed      = core.StatusFailed
	StatusUnsupported = core.StatusUnsupported
	StatusInvalid     = core.StatusInvalid
	StatusCanceled    = core.StatusCanceled
)

// Dataset is one workload catalog entry.
type Dataset = workload.Dataset

// Datasets returns the full workload catalog (Tables 3 and 4 of the paper
// at reproduction scale).
func Datasets() []Dataset { return workload.Catalog() }

// LoadDataset generates (or returns the cached) graph of a catalog entry.
func LoadDataset(id string) (*Graph, error) { return workload.Load(id) }

// DatasetClass returns the T-shirt class of a graph on the reproduction's
// shifted scale.
func DatasetClass(g *Graph) string { return string(workload.Class(g)) }

// GraphScale returns s(V,E) = log10(|V|+|E|), rounded to one decimal.
func GraphScale(g *Graph) float64 { return metrics.Scale(g.NumVertices(), g.NumEdges()) }

// SingleMachinePlatforms lists the engines used in single-machine
// experiments; DistributedPlatforms those used in distributed ones.
func SingleMachinePlatforms() []string { return append([]string(nil), platforms.SingleMachine...) }

// DistributedPlatforms lists the engines used in distributed experiments.
func DistributedPlatforms() []string { return append([]string(nil), platforms.DistributedSet...) }

// Experiment entry points: each Session method (s.DatasetVariety,
// s.AlgorithmVariety, ...) regenerates one paper artifact; see DESIGN.md's
// per-experiment index for the artifact mapping. ThroughputReport and
// VerticalSpeedupReport derive their tables from the results database
// those runs filled (s.DB()).

// ThroughputReport derives Figure 5 (EPS/EVPS) from dataset-variety runs.
func ThroughputReport(db *ResultsDB, platformNames []string) *Report {
	return core.ThroughputReport(db, platformNames)
}

// VerticalSpeedupReport derives Table 9 from vertical-scalability runs.
func VerticalSpeedupReport(db *ResultsDB, platformNames []string) *Report {
	return core.VerticalSpeedupReport(db, platformNames)
}

// WeakPair couples a machine count with its Graph500 dataset.
type WeakPair = core.WeakPair

// DefaultWeakPairs mirrors the paper's weak-scaling series.
func DefaultWeakPairs() []WeakPair { return core.DefaultWeakPairs() }

// DataGeneration runs Figure 10 (Datagen old vs. new flow and worker
// scalability).
func DataGeneration(scaleFactors []float64, workers []int, edgesPerUnit int) (*Report, error) {
	return core.DataGeneration(scaleFactors, workers, edgesPerUnit)
}

// Generator facades.

// DatagenConfig parameterizes the social-network generator.
type DatagenConfig = datagen.Config

// DatagenResult is a generated social network with generation statistics.
type DatagenResult = datagen.Result

// Datagen flows (Figure 10 compares them).
const (
	DatagenFlowNew = datagen.FlowNew
	DatagenFlowOld = datagen.FlowOld
)

// GenerateSocialNetwork runs the LDBC Datagen reimplementation.
func GenerateSocialNetwork(cfg DatagenConfig) (*DatagenResult, error) { return datagen.Generate(cfg) }

// Graph500Config parameterizes the Kronecker generator.
type Graph500Config = graph500.Config

// GenerateGraph500 runs the Graph500 R-MAT generator.
func GenerateGraph500(cfg Graph500Config) (*Graph, error) { return graph500.Generate(cfg) }

// RenewClassL re-derives the benchmark's reference class: the largest
// class whose graphs all complete BFS within the budget on the given
// single-machine platform (the renewal process of Section 2.4).
func RenewClassL(platformName string, threads int, budget time.Duration) (string, error) {
	timer := func(g *Graph, source int64) (time.Duration, error) {
		res, err := RunWithBudget(context.Background(), platformName, g, BFS, Params{Source: source},
			RunConfig{Threads: threads, Machines: 1}, budget*10)
		if err != nil {
			return 0, err
		}
		return res.ProcessingTime, nil
	}
	out, err := workload.RenewClassL(timer, budget)
	if err != nil {
		return "", err
	}
	return string(out.ClassL), nil
}
