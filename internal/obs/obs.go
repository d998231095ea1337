// Package obs is the pipeline's observability substrate: hierarchical stage
// spans (wall time, allocated-bytes delta, custom attributes), named
// counters (per-HB-rule edge counts, candidate survival per pruning stage,
// trace record breakdowns), a progress log, and a versioned run manifest
// for machine consumption (dcatch -metrics-json).
//
// Everything is nil-safe: a nil *Recorder or nil *Span accepts every call
// as a no-op, so instrumented code needs no "if enabled" branches and pays
// only a nil check when observability is off. Instrumentation never feeds
// back into analysis results — reports are byte-identical with recording on
// or off (enforced by internal/core's determinism test).
package obs

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"
)

// Measured spans sample the runtime/metrics package rather than
// runtime.ReadMemStats: the two samples below are lock-free counters the
// runtime maintains anyway, so a stage boundary costs well under a
// microsecond instead of ReadMemStats's stop-the-world.
var memSampleNames = []string{
	"/gc/heap/allocs:bytes",              // cumulative allocated bytes
	"/memory/classes/heap/objects:bytes", // live heap bytes
}

// memSamplePool recycles the sample slices memSample hands to
// metrics.Read: a fresh slice per span boundary showed up as the single
// allocation on every measured span, so the slices are pooled (pointer-typed
// to keep the pool itself allocation-free) and span boundaries are now
// alloc-free in steady state (locked by TestMemSampleAllocs).
var memSamplePool = sync.Pool{New: func() any {
	s := make([]metrics.Sample, len(memSampleNames))
	for i := range s {
		s[i].Name = memSampleNames[i]
	}
	return &s
}}

// memSample returns (cumulative allocated bytes, live heap bytes).
func memSample() (allocs, heap uint64) {
	sp := memSamplePool.Get().(*[]metrics.Sample)
	s := *sp
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		heap = s[1].Value.Uint64()
	}
	memSamplePool.Put(sp)
	return allocs, heap
}

// Recorder collects spans, counters and log output for one pipeline run.
// The zero value is not usable; call New. All methods are safe for
// concurrent use (parallel analysis stages record into one Recorder).
type Recorder struct {
	mu       sync.Mutex
	t0       time.Time
	spans    []*Span
	counters map[string]int64
	hists    map[string]*Histogram
	logw     io.Writer
	events   func(Event)
	memHW    uint64
}

// New returns an empty recorder.
func New() *Recorder {
	return &Recorder{t0: time.Now(), counters: map[string]int64{}}
}

// SetLog directs human-readable progress lines (Logf) to w; nil disables.
func (r *Recorder) SetLog(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.logw = w
	r.mu.Unlock()
}

// Logf emits one progress line prefixed with the elapsed run time. A nil
// recorder drops the line; with neither a log writer nor an event sink set
// the line is never even formatted.
func (r *Recorder) Logf(format string, args ...any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	w, t0, sink := r.logw, r.t0, r.events
	r.mu.Unlock()
	if w == nil && sink == nil {
		return
	}
	msg := fmt.Sprintf(format, args...)
	if w != nil {
		fmt.Fprintf(w, "[dcatch +%8.1fms] %s\n",
			float64(time.Since(t0).Microseconds())/1000, msg)
	}
	if sink != nil {
		sink(Event{Type: EventLog, Msg: msg, AtMs: sinceMs(t0)})
	}
}

// Observe records v into the named histogram, creating it on first use.
func (r *Recorder) Observe(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		if r.hists == nil {
			r.hists = map[string]*Histogram{}
		}
		h = NewHistogram()
		r.hists[name] = h
	}
	r.mu.Unlock()
	h.Observe(v)
}

// Histograms returns the live named histograms (shared, concurrency-safe
// objects — the Registry merges them without copying).
func (r *Recorder) Histograms() map[string]*Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		out[k] = h
	}
	return out
}

// HistogramData exports every named histogram's snapshot.
func (r *Recorder) HistogramData() map[string]HistogramData {
	if r == nil {
		return nil
	}
	out := map[string]HistogramData{}
	for k, h := range r.Histograms() {
		out[k] = h.Export()
	}
	return out
}

// Count adds n to the named counter.
func (r *Recorder) Count(name string, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += n
	r.mu.Unlock()
}

// CountMax raises the named counter to n if n is larger — a high-water-mark
// counter. Summing counters misrepresents per-window quantities like the
// reachability footprint under chunked analysis (many windows, one alive at
// a time); max-semantics counters record the true peak instead.
func (r *Recorder) CountMax(name string, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if n > r.counters[name] {
		r.counters[name] = n
	}
	r.mu.Unlock()
}

// Counters returns a copy of all counters.
func (r *Recorder) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// MemHighWater returns the largest heap-in-use figure observed at any
// measured span boundary, in bytes.
func (r *Recorder) MemHighWater() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.memHW
}

// Span starts a measured top-level stage span: wall time plus an
// allocated-bytes delta sampled from runtime/metrics at both boundaries
// (sub-microsecond, so stage granularity costs nothing measurable; nested
// Child spans skip even that).
func (r *Recorder) Span(name string) *Span {
	if r == nil {
		return nil
	}
	allocs, heap := memSample()
	s := &Span{rec: r, name: name, start: time.Now(), alloc0: allocs, measured: true}
	r.mu.Lock()
	if heap > r.memHW {
		r.memHW = heap
	}
	r.spans = append(r.spans, s)
	sink, t0 := r.events, r.t0
	r.mu.Unlock()
	if sink != nil {
		sink(Event{Type: EventSpanStart, Name: name, AtMs: sinceMs(t0)})
	}
	return s
}

// Span is one timed region of the pipeline. Created by Recorder.Span (stage
// level, memory-measured) or Span.Child (nested, wall time only). A nil
// *Span accepts every call as a no-op.
type Span struct {
	rec      *Recorder
	name     string
	start    time.Time
	wall     time.Duration
	alloc0   uint64
	alloc    int64
	measured bool
	attrs    map[string]any
	children []*Span
}

// Child starts a nested span under s. Children are cheap (two time stamps,
// no memory sampling) so they can wrap inner units of work like closure
// passes or Eserial rounds.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{rec: s.rec, name: name, start: time.Now()}
	s.rec.mu.Lock()
	s.children = append(s.children, c)
	sink, t0 := s.rec.events, s.rec.t0
	s.rec.mu.Unlock()
	if sink != nil {
		sink(Event{Type: EventSpanStart, Name: name, AtMs: sinceMs(t0)})
	}
	return c
}

// Attr attaches a key/value attribute to the span.
func (s *Span) Attr(key string, val any) {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]any{}
	}
	s.attrs[key] = val
	s.rec.mu.Unlock()
}

// Count delegates to the owning recorder's counter set.
func (s *Span) Count(name string, n int64) {
	if s == nil {
		return
	}
	s.rec.Count(name, n)
}

// CountMax delegates to the owning recorder's high-water-mark counter.
func (s *Span) CountMax(name string, n int64) {
	if s == nil {
		return
	}
	s.rec.CountMax(name, n)
}

// End closes the span, fixing its wall time and (for measured spans) its
// allocated-bytes delta. Ending a span twice keeps the first measurement.
func (s *Span) End() {
	if s == nil {
		return
	}
	wall := time.Since(s.start)
	var heap uint64
	var alloc int64
	if s.measured {
		allocs, h := memSample()
		heap = h
		alloc = int64(allocs - s.alloc0)
	}
	s.rec.mu.Lock()
	if s.wall == 0 {
		s.wall = wall
		s.alloc = alloc
	}
	if heap > s.rec.memHW {
		s.rec.memHW = heap
	}
	sink, t0 := s.rec.events, s.rec.t0
	s.rec.mu.Unlock()
	if sink != nil {
		sink(Event{
			Type: EventSpanEnd, Name: s.name, AtMs: sinceMs(t0),
			WallMs: float64(wall.Microseconds()) / 1000,
		})
	}
}

// SpanData is the exportable form of a span tree node (manifest JSON).
type SpanData struct {
	Name       string         `json:"name"`
	WallNs     int64          `json:"wall_ns"`
	AllocBytes int64          `json:"alloc_bytes,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []SpanData     `json:"children,omitempty"`
}

// Spans exports the recorded span forest. maxDepth bounds the tree depth
// (1 = stage spans only, 2 = one level of children, ...; <= 0 = unlimited)
// so bulk consumers can stay compact.
func (r *Recorder) Spans(maxDepth int) []SpanData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanData, 0, len(r.spans))
	for _, s := range r.spans {
		out = append(out, s.exportLocked(maxDepth, 1))
	}
	return out
}

// exportLocked deep-copies the span subtree; the recorder mutex must be
// held (all span mutation happens under it).
func (s *Span) exportLocked(maxDepth, depth int) SpanData {
	wall := s.wall
	if wall == 0 { // still open: report time so far
		wall = time.Since(s.start)
	}
	d := SpanData{Name: s.name, WallNs: wall.Nanoseconds(), AllocBytes: s.alloc}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			d.Attrs[k] = v
		}
	}
	if maxDepth > 0 && depth >= maxDepth {
		return d
	}
	for _, c := range s.children {
		d.Children = append(d.Children, c.exportLocked(maxDepth, depth+1))
	}
	return d
}

// Version renders the module version and VCS revision from the build info,
// for the -version flag of every dcatch binary and the run manifest.
func Version() string {
	ver, rev := versionInfo()
	if rev != "" {
		return fmt.Sprintf("dcatch %s (%s, %s)", ver, rev, runtime.Version())
	}
	return fmt.Sprintf("dcatch %s (%s)", ver, runtime.Version())
}

// versionInfo extracts (module version, VCS revision) from the build info.
func versionInfo() (string, string) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown", ""
	}
	ver := bi.Main.Version
	if ver == "" || ver == "(devel)" {
		ver = "devel"
	}
	var rev string
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
			if len(rev) > 12 {
				rev = rev[:12]
			}
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "+dirty"
	}
	return ver, rev
}
