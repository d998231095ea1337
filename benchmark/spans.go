package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a product layer, recorded from the benchmark's
// side of the call. Spans of one job share its Job id; Parent is the index of
// the enclosing span, -1 for a job's root.
type span struct {
	Name    string  `json:"name"`
	Job     int     `json:"job"`
	Parent  int     `json:"parent"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

func (s span) ms() float64 { return s.EndMs - s.StartMs }

// probeJob is the Job id of spans recorded by layer probes, outside any job.
const probeJob = -1

// tracer keeps the spans of one traced run in memory; they are written out
// once, when the run ends. Safe for concurrent use (the served workload
// records from two client goroutines).
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e6 }

// start opens a span and returns its index, the handle end and child spans
// take.
func (t *tracer) start(name string, job, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, StartMs: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndMs = t.now()
}

// time runs f inside a span and returns the span's duration in ms.
func (t *tracer) time(name string, job, parent int, f func()) float64 {
	id := t.start(name, job, parent)
	f()
	t.end(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].ms()
}

// jobSpans records one job's spans: a root plus one child per call into a
// layer. With a nil tracer it only runs the calls, so the same job code
// serves the untraced run.
type jobSpans struct {
	t         *tracer
	job, root int
}

func beginJob(t *tracer, job int) jobSpans {
	js := jobSpans{t: t, job: job}
	if t != nil {
		js.root = t.start("job", job, -1)
	}
	return js
}

func (js jobSpans) time(name string, f func()) {
	if js.t == nil {
		f()
		return
	}
	js.t.time(name, js.job, js.root, f)
}

func (js jobSpans) end() {
	if js.t != nil {
		js.t.end(js.root)
	}
}

// jobTotals returns, for each job, the summed duration of its spans by
// name, plus the duration of the job's root span under the name "job" and
// the summed duration of the root's direct children under "top".
func (t *tracer) jobTotals() map[int]map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int]map[string]float64{}
	for _, s := range t.spans {
		m := out[s.Job]
		if m == nil {
			m = map[string]float64{}
			out[s.Job] = m
		}
		switch {
		case s.Parent < 0:
			m["job"] += s.ms()
		default:
			m[s.Name] += s.ms()
			if t.spans[s.Parent].Parent < 0 {
				m["top"] += s.ms()
			}
		}
	}
	return out
}

// selfTimes returns each span name's self time summed over the run: a span's
// duration minus the part its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.ms()
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Name] += max(s.ms()-covered[i], 0)
	}
	return out
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
