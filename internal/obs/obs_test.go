package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety drives every entry point through nil receivers: the whole
// point of the package is that instrumented code never branches on
// "enabled".
func TestNilSafety(t *testing.T) {
	var r *Recorder
	r.SetLog(nil)
	r.SetEvents(nil)
	r.Logf("dropped %d", 1)
	r.Count("x", 1)
	r.Observe("lat", 1)
	if r.Counters() != nil || r.Spans(0) != nil {
		t.Fatal("nil recorder must return nil data")
	}
	if r.MemHighWater() != 0 {
		t.Fatal("nil recorder mem high water")
	}
	sp := r.Span("stage")
	if sp != nil {
		t.Fatal("nil recorder must hand out nil spans")
	}
	c := sp.Child("inner")
	if c != nil {
		t.Fatal("nil span must hand out nil children")
	}
	c.Attr("k", "v")
	c.Count("x", 1)
	c.End()
	sp.End()

	var m Manifest
	m.Attach(r)
	if m.Counters == nil || m.Spans == nil || m.Histograms == nil {
		t.Fatal("Attach(nil) must still produce non-nil counters/spans/histograms")
	}
}

// TestMemSampleAllocs locks the pooled memSample path at zero allocations:
// span boundaries fire on every measured stage and must stay alloc-free in
// steady state.
func TestMemSampleAllocs(t *testing.T) {
	memSample() // warm the pool
	if n := testing.AllocsPerRun(100, func() { memSample() }); n != 0 {
		t.Fatalf("memSample allocates %v times per call, want 0", n)
	}
}

// TestEvents checks that an installed sink sees span boundaries and log
// lines in order, and that removing the sink stops emission.
func TestEvents(t *testing.T) {
	r := New()
	var got []Event
	r.SetEvents(func(e Event) { got = append(got, e) })
	st := r.Span("stage")
	r.Logf("progress %d", 1)
	c := st.Child("inner")
	c.End()
	st.End()
	r.SetEvents(nil)
	r.Span("silent").End()

	types := make([]string, len(got))
	for i, e := range got {
		types[i] = e.Type
	}
	want := []string{EventSpanStart, EventLog, EventSpanStart, EventSpanEnd, EventSpanEnd}
	if len(types) != len(want) {
		t.Fatalf("event types = %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("event types = %v, want %v", types, want)
		}
	}
	if got[0].Name != "stage" || got[1].Msg != "progress 1" || got[2].Name != "inner" {
		t.Fatalf("events = %+v", got)
	}
	if got[4].Name != "stage" || got[4].WallMs < 0 {
		t.Fatalf("span_end event = %+v", got[4])
	}
	for i, e := range got {
		if e.AtMs < 0 {
			t.Fatalf("event %d has negative timestamp: %+v", i, e)
		}
	}
}

func TestSpanTreeAndCounters(t *testing.T) {
	r := New()
	st := r.Span("stage")
	st.Attr("records", 7)
	in := st.Child("inner")
	in.Attr("round", 1)
	in.Count("edges", 3)
	in.End()
	st.Child("inner2").End()
	st.End()
	r.Count("edges", 2)

	if got := r.Counters()["edges"]; got != 5 {
		t.Fatalf("edges counter = %d, want 5", got)
	}
	spans := r.Spans(0)
	if len(spans) != 1 || spans[0].Name != "stage" {
		t.Fatalf("span forest = %+v", spans)
	}
	if len(spans[0].Children) != 2 || spans[0].Children[0].Name != "inner" {
		t.Fatalf("children = %+v", spans[0].Children)
	}
	if spans[0].Attrs["records"] != 7 {
		t.Fatalf("attrs = %+v", spans[0].Attrs)
	}
	if spans[0].WallNs <= 0 {
		t.Fatalf("stage wall time not recorded: %+v", spans[0])
	}
	// Depth limiting trims children but keeps the node itself.
	if lim := r.Spans(1); len(lim) != 1 || len(lim[0].Children) != 0 {
		t.Fatalf("Spans(1) = %+v", lim)
	}
	if r.MemHighWater() == 0 {
		t.Fatal("measured span should have sampled the heap")
	}
}

// TestConcurrentRecording exercises the mutex paths under the race
// detector: spans, children, attrs and counters from many goroutines.
func TestConcurrentRecording(t *testing.T) {
	r := New()
	st := r.Span("parallel-stage")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := st.Child("batch")
			c.Attr("i", i)
			c.Count("work", 1)
			c.End()
		}(i)
	}
	wg.Wait()
	st.End()
	if got := r.Counters()["work"]; got != 16 {
		t.Fatalf("work counter = %d, want 16", got)
	}
	if got := len(r.Spans(0)[0].Children); got != 16 {
		t.Fatalf("children = %d, want 16", got)
	}
}

func TestLogf(t *testing.T) {
	r := New()
	var b strings.Builder
	r.SetLog(&b)
	r.Logf("hello %s", "world")
	if !strings.Contains(b.String(), "hello world") || !strings.Contains(b.String(), "[dcatch +") {
		t.Fatalf("log line = %q", b.String())
	}
}

// TestManifestSchema locks in the required manifest keys the CI smoke job
// validates, so a schema regression fails `go test` before it fails CI.
func TestManifestSchema(t *testing.T) {
	r := New()
	r.Count("hb.edges.mrpc", 4)
	r.Span("core.trace_analysis").End()
	m := NewManifest("dcatch")
	m.Seed = 42
	m.Benchmark = "MR-3274"
	m.Stats = struct {
		TraceRecords int
	}{99}
	m.Flags["bench"] = "MR-3274"
	m.Attach(r)
	buf, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"manifest_version", "tool", "tool_version", "seed",
		"stats", "spans", "counters", "histograms", "mem_high_water_bytes",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("manifest missing required key %q", key)
		}
	}
	if raw["manifest_version"] != float64(ManifestVersion) {
		t.Fatalf("manifest_version = %v", raw["manifest_version"])
	}
	if !strings.HasSuffix(string(buf), "\n") {
		t.Fatal("manifest JSON must end in a newline")
	}
}

func TestVersion(t *testing.T) {
	v := Version()
	if !strings.HasPrefix(v, "dcatch ") || !strings.Contains(v, "go1") {
		t.Fatalf("Version() = %q", v)
	}
}
