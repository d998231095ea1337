package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"dcatch/internal/obs"
)

// TestMetricsScrape runs a real job and scrapes GET /metrics in both
// formats: the Prometheus text must carry service counters, gauges and the
// job-latency histogram; the JSON snapshot must be versioned.
func TestMetricsScrape(t *testing.T) {
	_, c := newTestServer(t, Config{})
	st, err := c.SubmitSubject(SubjectRequest{Bench: "MR-3274"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, st.ID)

	resp, err := http.Get(c.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE dcatch_serve_jobs_submitted counter",
		"dcatch_serve_jobs_submitted 1",
		"# TYPE dcatch_serve_queue_depth gauge",
		"# TYPE dcatch_serve_job_wall_us histogram",
		"dcatch_serve_job_wall_us_count 1",
		`dcatch_serve_job_wall_us_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	// Per-job analysis counters aggregate into the same scrape.
	if !strings.Contains(body, "dcatch_hb_") {
		t.Errorf("/metrics missing per-job hb.* counters:\n%s", body)
	}

	resp2, err := http.Get(c.Base + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var snap obs.RegistrySnapshot
	if err := json.NewDecoder(resp2.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.SchemaVersion != obs.RegistryVersion {
		t.Fatalf("registry_version = %d", snap.SchemaVersion)
	}
	if snap.Sources < 2 { // base recorder + job recorder
		t.Errorf("sources = %d, want >= 2", snap.Sources)
	}
	if snap.Counters["serve.jobs.submitted"] != 1 {
		t.Errorf("counters = %+v", snap.Counters)
	}
	if snap.Histograms["serve.job.wall_us"].Count != 1 {
		t.Errorf("histograms = %+v", snap.Histograms)
	}
}

// TestJobMetrics fetches a finished job's telemetry snapshot and checks the
// versioned schema plus the service-side span timeline around the analysis
// spans.
func TestJobMetrics(t *testing.T) {
	_, c := newTestServer(t, Config{})
	raw, _ := localTraceBytes(t, "ZK-1144")
	st, err := c.SubmitTrace(bytes.NewReader(raw), JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, st.ID)

	jm, err := c.JobMetrics(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jm.SchemaVersion != JobMetricsVersion || jm.ID != st.ID || jm.State != StateDone {
		t.Fatalf("job metrics = %+v", jm)
	}
	names := map[string]bool{}
	for _, sp := range jm.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"serve.decode", "serve.queue_wait", "serve.admission_wait", "serve.run", "core.trace_analysis"} {
		if !names[want] {
			t.Errorf("span %q missing from timeline %v", want, jm.Spans)
		}
	}
	if len(jm.Counters) == 0 {
		t.Error("job metrics carries no analysis counters")
	}

	if _, err := c.JobMetrics("j999999"); err == nil {
		t.Error("metrics for unknown job succeeded")
	}
}

// TestJobEventsStream consumes a finished job's event stream end to end:
// replayed events arrive in seq order, the state lifecycle is visible, and
// the stream terminates on its own.
func TestJobEventsStream(t *testing.T) {
	_, c := newTestServer(t, Config{})
	st, err := c.SubmitSubject(SubjectRequest{Bench: "ZK-1144"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, st.ID)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var events []obs.Event
	if err := c.StreamEvents(ctx, st.ID, func(e obs.Event) error {
		events = append(events, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	var lastSeq int64
	states := []string{}
	spanStarts := 0
	for _, e := range events {
		if e.Type == obs.EventHeartbeat {
			continue
		}
		if e.Seq <= lastSeq {
			t.Fatalf("seq not increasing: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.Type == obs.EventState {
			states = append(states, e.Name)
		}
		if e.Type == obs.EventSpanStart {
			spanStarts++
		}
	}
	if len(states) < 3 || states[0] != StateQueued || states[len(states)-1] != StateDone {
		t.Errorf("state lifecycle = %v, want queued ... done", states)
	}
	if spanStarts == 0 {
		t.Error("no span events in stream")
	}
}

// TestEventsSSEFraming asserts the Accept header switches the stream to SSE
// data: lines.
func TestEventsSSEFraming(t *testing.T) {
	_, c := newTestServer(t, Config{})
	st, err := c.SubmitSubject(SubjectRequest{Bench: "MR-3274"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, st.ID)

	req, _ := http.NewRequest("GET", c.Base+"/v1/jobs/"+st.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.HasPrefix(buf.String(), "data: {") {
		t.Errorf("SSE body = %q", buf.String())
	}
}

// TestSlowConsumerDoesNotBlock parks a subscriber that never reads past its
// channel buffer and floods the hub: publishes must not block (the job
// completes), and the overflow is counted as dropped.
func TestSlowConsumerDoesNotBlock(t *testing.T) {
	hub := newEventHub(8)
	ch, cancel := hub.subscribe()
	defer cancel()
	_ = ch // never read: the channel fills at cap 8+64

	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			hub.publish(obs.Event{Type: obs.EventLog, Msg: "flood"})
		}
		hub.close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publish blocked on a slow consumer")
	}
	if d := hub.droppedCount(); d != 1000-(8+64) {
		t.Errorf("dropped = %d, want %d", d, 1000-(8+64))
	}
	// The stalled subscriber still drains its buffer and sees the close.
	n := 0
	for range ch {
		n++
	}
	if n != 8+64 {
		t.Errorf("slow consumer drained %d events, want %d", n, 8+64)
	}
}

// TestEventStreamEndsOnCancel opens a live stream on a queued job, cancels
// the job, and asserts the stream terminates with a canceled state event.
func TestEventStreamEndsOnCancel(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	block := make(chan struct{})
	defer close(block)
	started := make(chan struct{})
	// Park the only worker so the next submission stays queued.
	_, err := s.mgr.submit(KindSubject, "fake", "park", 0, jobTelemetry{}, func() (*jobResult, error) {
		close(started)
		<-block
		return &jobResult{report: []byte("parked"), summary: "parked"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	st, err := c.SubmitSubject(SubjectRequest{Bench: "MR-3274"})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	streamed := make(chan []obs.Event, 1)
	go func() {
		var events []obs.Event
		c.StreamEvents(ctx, st.ID, func(e obs.Event) error {
			events = append(events, e)
			return nil
		})
		streamed <- events
	}()
	time.Sleep(50 * time.Millisecond) // let the stream attach
	req, err := http.NewRequest(http.MethodDelete, c.Base+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /v1/jobs/%s: %s", st.ID, resp.Status)
	}
	select {
	case events := <-streamed:
		var last string
		for _, e := range events {
			if e.Type == obs.EventState {
				last = e.Name
			}
		}
		if last != StateCanceled {
			t.Errorf("final state event = %q, want canceled", last)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("stream did not terminate on job cancel")
	}
}

// TestReadyz checks the readiness surface: operational detail while up, 503
// once draining, and a still-cheap 503 /healthz.
func TestReadyz(t *testing.T) {
	s, c := newTestServer(t, Config{MemBudget: 1 << 20})
	resp, err := http.Get(c.Base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || snap["status"] != "ok" {
		t.Fatalf("/readyz = %d %v", resp.StatusCode, snap)
	}
	for _, key := range []string{"queue_depth", "queue_cap", "admission_headroom_bytes", "mem_in_use", "running", "workers"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("/readyz missing %q: %v", key, snap)
		}
	}
	if snap["admission_headroom_bytes"] != float64(1<<20) {
		t.Errorf("admission_headroom_bytes = %v", snap["admission_headroom_bytes"])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Shutdown(ctx)
	for _, path := range []string{"/readyz", "/healthz"} {
		resp, err := http.Get(c.Base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s while draining = %d, want 503", path, resp.StatusCode)
		}
	}
}

// TestTelemetryDeterminism locks the core guarantee at the service tier:
// the same job served with per-job telemetry on and off yields
// byte-identical reports.
func TestTelemetryDeterminism(t *testing.T) {
	_, cOn := newTestServer(t, Config{})
	_, cOff := newTestServer(t, Config{NoJobTelemetry: true})

	fetch := func(c *Client) []byte {
		t.Helper()
		st, err := c.SubmitSubject(SubjectRequest{Bench: "ZK-1144", Options: JobOptions{Validate: true}})
		if err != nil {
			t.Fatal(err)
		}
		st = waitDone(t, c, st.ID)
		if st.State != StateDone {
			t.Fatalf("job %s: %s", st.State, st.Error)
		}
		rep, err := c.Report(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	on, off := fetch(cOn), fetch(cOff)
	if !bytes.Equal(on, off) {
		t.Errorf("report differs with telemetry on vs off:\n-- on --\n%s\n-- off --\n%s", on, off)
	}

	// With telemetry off the job metrics endpoint still answers, empty.
	st, err := cOff.SubmitSubject(SubjectRequest{Bench: "MR-3274"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, cOff, st.ID)
	jm, err := cOff.JobMetrics(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(jm.Spans) != 0 || len(jm.Counters) != 0 {
		t.Errorf("NoJobTelemetry job metrics = %+v, want empty", jm)
	}
}
