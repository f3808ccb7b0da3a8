package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"graphalytics/internal/core"
	"graphalytics/internal/service"
	"graphalytics/internal/workload"
)

// tenantKeys are the API keys of tenants A and B.
var tenantKeys = [2]string{"key-a", "key-b"}

// daemon is an in-process graphalyticsd serving on a loopback listener.
type daemon struct {
	svc    *service.Service
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

func daemonConfig(dir string) service.Config {
	return service.Config{
		Tenants: []service.Tenant{{Name: "tenant-a", Key: tenantKeys[0]}, {Name: "tenant-b", Key: tenantKeys[1]}},
		Slots:   1,
		SessionOptions: []core.Option{
			core.WithCacheDir(filepath.Join(dir, "cache")),
			core.WithMappedSnapshots(true),
			core.WithParallelism(1),
		},
		ArchiveDir: filepath.Join(dir, "archive"),
	}
}

// daemonSetup repeats the daemon's set-up — service.New plus a cold warm
// of every dataset into an empty cache directory, then a restart that
// serves the warm snapshots as mappings — and returns the median time
// and the last repetition's service, which the run then measures.
func (r *runner) daemonSetup(ctx context.Context, reps int) (float64, *service.Service, error) {
	var times []float64
	var svc *service.Service
	for i := 0; i < reps; i++ {
		dir := filepath.Join(r.work, fmt.Sprintf("daemon-%d", i))
		if svc != nil {
			if err := svc.Shutdown(ctx); err != nil {
				return 0, nil, err
			}
			if err := os.RemoveAll(filepath.Join(r.work, fmt.Sprintf("daemon-%d", i-1))); err != nil {
				return 0, nil, err
			}
		}
		start := time.Now()
		cold, err := service.New(daemonConfig(dir))
		if err != nil {
			return 0, nil, err
		}
		c, err := r.coldSetup(ctx, cold.Session().GraphStore())
		if err != nil {
			return 0, nil, err
		}
		if err := cold.Shutdown(ctx); err != nil {
			return 0, nil, err
		}
		if svc, err = service.New(daemonConfig(dir)); err != nil {
			return 0, nil, err
		}
		if err := workload.WarmIDs(ctx, svc.Session().GraphStore(), 1, r.w.datasets, nil); err != nil {
			return 0, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		r.tally.add(fmt.Sprintf("set-up %d counters", i), r.w.checkCounters("setup", c)...)
	}
	return median(times), svc, nil
}

// serve starts the service's HTTP API on a loopback port with a client
// limited to two connections, one per tenant.
func serve(svc *service.Service) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}},
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// close stops the HTTP server and the service and waits for both.
func (d *daemon) close(ctx context.Context) error {
	d.client.CloseIdleConnections()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, d.svc.Shutdown(ctx))
}

// runSample is one tenant run as its client saw it.
type runSample struct {
	tenant int
	// Client clock: before the POST, and when the final event arrived.
	submit, done time.Time
	// Server stamps from the run-queued, run-started and run-finished
	// records, and the last job-finished record.
	queued, started, finished, lastJob time.Time
	archiveRoot                        string
	dropped                            uint64
	jobMS                              map[core.JobSpec]float64 // ok jobs, as amortizedJobMS computes them
	results                            []core.JobResult
	resultBytes                        int64
	// Client-side call durations.
	submitDur, resultsDur time.Duration
	problems              []string
}

// do issues one API request as tenant t and checks the status code.
func (d *daemon) do(ctx context.Context, t int, method, path string, body []byte, want int) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+tenantKeys[t])
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: HTTP %d (want %d): %s", method, path, resp.StatusCode, want, strings.TrimSpace(string(msg)))
	}
	return resp, nil
}

// oneRun submits the tenant's spec, follows its SSE stream to the final
// event, reads its results, and checks them against the stream and the
// expected-status matrix. Spans cover each API call when tracing.
func (r *runner) oneRun(ctx context.Context, d *daemon, t int, body []byte) runSample {
	s := runSample{tenant: t}
	root := r.tr.root("run", "tenant", r.w.specs[t].Name)
	defer root.end()
	fail := func(err error) runSample {
		s.problems = append(s.problems, err.Error())
		return s
	}

	sp := root.child("POST /v1/runs")
	s.submit = time.Now()
	resp, err := d.do(ctx, t, http.MethodPost, "/v1/runs", body, http.StatusAccepted)
	if err != nil {
		sp.end()
		return fail(err)
	}
	var rec service.RunRecord
	err = json.NewDecoder(resp.Body).Decode(&rec)
	resp.Body.Close()
	s.submitDur = time.Since(s.submit)
	sp.end()
	if err != nil {
		return fail(fmt.Errorf("submit: %w", err))
	}

	sp = root.child("GET /v1/runs/{id}/events")
	resp, err = d.do(ctx, t, http.MethodGet, "/v1/runs/"+rec.ID+"/events", nil, http.StatusOK)
	if err != nil {
		sp.end()
		return fail(err)
	}
	finished := map[int]string{} // plan index → job-finished status
	starts := map[int]time.Time{}
	walls := map[int]time.Duration{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var final *service.EventRecord
	for final == nil && sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev service.EventRecord
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			resp.Body.Close()
			sp.end()
			return fail(fmt.Errorf("events: %w", err))
		}
		switch ev.Type {
		case "run-queued":
			s.queued = ev.Time
		case "run-started":
			s.started = ev.Time
		case "run-finished":
			s.done = time.Now()
			s.finished = ev.Time
			final = &ev
		case string(core.EventJobStarted):
			starts[ev.Index] = ev.Time
		case string(core.EventJobFinished):
			finished[ev.Index] = ev.Status
			s.lastJob = ev.Time
			walls[ev.Index] = ev.Time.Sub(starts[ev.Index])
		}
	}
	resp.Body.Close()
	sp.end()
	if final == nil {
		return fail(fmt.Errorf("events: stream ended without run-finished (%v)", sc.Err()))
	}
	s.archiveRoot, s.dropped = final.ArchiveRoot, final.Dropped

	sp = root.child("GET /v1/runs/{id}/results")
	start := time.Now()
	resp, err = d.do(ctx, t, http.MethodGet, "/v1/runs/"+rec.ID+"/results", nil, http.StatusOK)
	if err != nil {
		sp.end()
		return fail(err)
	}
	cw := &countingWriter{w: io.Discard}
	dec := json.NewDecoder(io.TeeReader(resp.Body, cw))
	for {
		var res core.JobResult
		if err := dec.Decode(&res); err == io.EOF {
			break
		} else if err != nil {
			resp.Body.Close()
			sp.end()
			return fail(fmt.Errorf("results: %w", err))
		}
		s.results = append(s.results, res)
	}
	resp.Body.Close()
	s.resultsDur = time.Since(start)
	s.resultBytes = cw.n
	sp.end()
	s.jobMS = amortizedJobMS(s.results, walls)

	if final.State != service.RunDone || s.archiveRoot == "" {
		s.problems = append(s.problems, fmt.Sprintf("run %s ended %s with archive root %q", rec.ID, final.State, s.archiveRoot))
	}
	if len(s.results) != rec.Jobs || len(finished) != rec.Jobs {
		s.problems = append(s.problems, fmt.Sprintf("run %s: %d results and %d job-finished events for %d jobs", rec.ID, len(s.results), len(finished), rec.Jobs))
	}
	for i, res := range s.results {
		if st, ok := finished[i]; !ok || st != string(res.Status) {
			s.problems = append(s.problems, fmt.Sprintf("run %s job %d: results say %q, events say %q", rec.ID, i, res.Status, st))
		}
	}
	return s
}

// clientLoop is one tenant's closed loop: n runs, each submitted after
// the previous one's results were read. started is closed once the
// first submission has been answered.
func (r *runner) clientLoop(ctx context.Context, d *daemon, t, n int, started chan<- struct{}) []runSample {
	body, err := json.Marshal(r.w.specs[t])
	if err != nil {
		panic(err) // a BenchSpec always marshals
	}
	out := make([]runSample, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.oneRun(ctx, d, t, body))
		if i == 0 && started != nil {
			close(started)
		}
	}
	return out
}

// daemonPhase runs both tenants' closed loops, n runs each; the tenant
// the seed picked submits first and the other starts once that
// submission was answered.
func (r *runner) daemonPhase(ctx context.Context, d *daemon, n int) []runSample {
	var out [2][]runSample
	var wg sync.WaitGroup
	first, second := r.w.first, 1-r.w.first
	started := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		out[first] = r.clientLoop(ctx, d, first, n, started)
	}()
	go func() {
		defer wg.Done()
		<-started
		out[second] = r.clientLoop(ctx, d, second, n, nil)
	}()
	wg.Wait()
	return append(out[0], out[1]...)
}

// tallyRuns checks every run's jobs and counters.
func (r *runner) tallyRuns(samples []runSample) {
	for _, s := range samples {
		r.checkJobs(s.results)
		c := r.resultCounters(s.results)
		// The shared reference cache is warm after the warm-up runs, and
		// the service does not expose its compute count.
		delete(c, "reference.computes")
		unit := r.w.specs[s.tenant].Name
		r.tally.add(unit+" run", append(s.problems, r.w.checkCounters(unit, c)...)...)
	}
}

// latencies returns each run's submit-to-done time in ms, each run's ok
// job times, and the phase wall time from first submit to last final
// event.
func latencies(samples []runSample) (runMS []float64, jobs []map[core.JobSpec]float64, wall time.Duration) {
	var first, last time.Time
	for _, s := range samples {
		if s.done.IsZero() {
			continue // a failed run, already tallied
		}
		runMS = append(runMS, ms(s.done.Sub(s.submit)))
		jobs = append(jobs, s.jobMS)
		if first.IsZero() || s.submit.Before(first) {
			first = s.submit
		}
		if s.done.After(last) {
			last = s.done
		}
	}
	return runMS, jobs, last.Sub(first)
}
