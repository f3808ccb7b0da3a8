package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// The tracer records spans from the benchmark's own code around its calls
// into the program's packages. Spans stay in memory while the benchmark
// runs and are written out once at the end, so recording costs one
// time.Now and one slice append per boundary. Tracing inside the program
// itself is out of scope: a span covers a whole public call.

// span is one traced call. Start and End are offsets from the tracer's
// base time. Spans of one pass or daemon run share a Trace id.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent,omitempty"` // 0 for a root
	Trace  int               `json:"trace"`
	Name   string            `json:"name"`
	Attrs  map[string]string `json:"attrs,omitempty"`
	Start  time.Duration     `json:"start_ns"`
	End    time.Duration     `json:"end_ns"`
	// Self is the part of the span no child covers; set by selfTimes.
	Self time.Duration `json:"self_ns"`
}

// tracer collects spans; it is safe for concurrent use. A nil *tracer
// records nothing, so untraced code paths share the traced ones.
type tracer struct {
	base   time.Time
	mu     sync.Mutex
	spans  []span
	traces int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// spanRef is a handle to an open span.
type spanRef struct {
	t     *tracer
	id    int
	trace int
}

func attrMap(kv []string) map[string]string {
	if len(kv) == 0 {
		return nil
	}
	m := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

func (t *tracer) open(parent, trace int, name string, start time.Duration, kv []string) spanRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	if trace == 0 {
		t.traces++
		trace = t.traces
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Attrs: attrMap(kv), Start: start, End: -1})
	return spanRef{t: t, id: id, trace: trace}
}

// root opens a span that starts a new trace.
func (t *tracer) root(name string, kv ...string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return t.open(0, 0, name, time.Since(t.base), kv)
}

// child opens a span under s.
func (s spanRef) child(name string, kv ...string) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	return s.t.open(s.id, s.trace, name, time.Since(s.t.base), kv)
}

// end closes the span.
func (s spanRef) end() {
	if s.t == nil {
		return
	}
	d := time.Since(s.t.base)
	s.t.mu.Lock()
	s.t.spans[s.id-1].End = d
	s.t.mu.Unlock()
}

// childAt records an already finished child from wall-clock timestamps,
// such as a phase of a Granula archive. The interval is clamped into
// [lo, hi], which must be the parent's closed interval: archive
// timestamps carry no monotonic reading, so a clock step could otherwise
// move a phase outside the call that produced it.
func (s spanRef) childAt(name string, start, end time.Time, lo, hi time.Duration, kv ...string) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	clamp := func(d time.Duration) time.Duration { return min(max(d, lo), hi) }
	c := s.t.open(s.id, s.trace, name, clamp(start.Sub(s.t.base)), kv)
	s.t.mu.Lock()
	s.t.spans[c.id-1].End = max(clamp(end.Sub(s.t.base)), s.t.spans[c.id-1].Start)
	s.t.mu.Unlock()
	return c
}

// interval returns the span's recorded start and end.
func (s spanRef) interval() (time.Duration, time.Duration) {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	sp := s.t.spans[s.id-1]
	return sp.Start, sp.End
}

// finished returns a copy of every span with self times filled in.
func (t *tracer) finished() []span {
	t.mu.Lock()
	out := slices.Clone(t.spans)
	t.mu.Unlock()
	selfTimes(out)
	return out
}

// selfTimes sets each span's Self: its duration minus the union of its
// children's intervals clipped to it.
func selfTimes(spans []span) {
	kids := make(map[int][]int)
	for i, sp := range spans {
		if sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], i)
		}
	}
	for i := range spans {
		sp := &spans[i]
		var ivs [][2]time.Duration
		for _, k := range kids[sp.ID] {
			lo, hi := max(spans[k].Start, sp.Start), min(spans[k].End, sp.End)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		slices.SortFunc(ivs, func(a, b [2]time.Duration) int { return cmp.Compare(a[0], b[0]) })
		var covered time.Duration
		curLo, curHi := time.Duration(-1), time.Duration(-1)
		for _, iv := range ivs {
			if iv[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			} else if iv[1] > curHi {
				curHi = iv[1]
			}
		}
		covered += curHi - curLo
		sp.Self = sp.End - sp.Start - covered
	}
}

// checkSpans reports spans that are unfinished, reversed, outside their
// parent, or left with a negative self time.
func checkSpans(spans []span) []string {
	var bad []string
	for _, sp := range spans {
		switch {
		case sp.End < 0:
			bad = append(bad, fmt.Sprintf("span %d %s never ended", sp.ID, sp.Name))
		case sp.End < sp.Start:
			bad = append(bad, fmt.Sprintf("span %d %s ends before it starts", sp.ID, sp.Name))
		case sp.Self < 0:
			bad = append(bad, fmt.Sprintf("span %d %s has negative self time %v", sp.ID, sp.Name, sp.Self))
		}
		if sp.Parent != 0 {
			p := spans[sp.Parent-1]
			if sp.Start < p.Start || sp.End > p.End || sp.Trace != p.Trace {
				bad = append(bad, fmt.Sprintf("span %d %s is not inside its parent %d %s", sp.ID, sp.Name, p.ID, p.Name))
			}
		}
	}
	return bad
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTotals sums span durations and self times by name and by
// name+attribute, over the spans of the given traces. total["x"] is the
// summed duration of spans named x; total["x|k=v"] restricts that to
// spans whose attribute k is v, for each attribute a span carries.
type layerTotals struct {
	total map[string]time.Duration
	self  time.Duration // summed self time of every non-root span
	count map[string]int
}

func sumLayers(spans []span, traces map[int]bool) layerTotals {
	lt := layerTotals{total: map[string]time.Duration{}, count: map[string]int{}}
	for _, sp := range spans {
		if !traces[sp.Trace] {
			continue
		}
		d := sp.End - sp.Start
		lt.total[sp.Name] += d
		lt.count[sp.Name]++
		for k, v := range sp.Attrs {
			lt.total[sp.Name+"|"+k+"="+v] += d
		}
		if sp.Parent != 0 {
			lt.self += sp.Self
		}
	}
	return lt
}
