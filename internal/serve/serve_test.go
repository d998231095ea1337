package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dcatch/internal/bench"
	"dcatch/internal/core"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/scancache"
	"dcatch/internal/testtrace"
	"dcatch/internal/trace"
	"dcatch/internal/trigger"
)

// newTestServer starts a detection service on an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, NewClient(hs.URL)
}

// localSubjectReport reproduces what the local CLI prints for the benchmark
// at seed (0: the registered one) from the pipeline's own stages — Detect,
// ValidateAll at 200 000 steps, RenderSubject — not through RunSubject, so
// it is an oracle for the one runner both front ends call.
func localSubjectReport(t *testing.T, benchID string, seed int64, jopt JobOptions) string {
	t.Helper()
	b := bench.Lookup(benchID)
	if b == nil {
		t.Fatalf("unknown benchmark %s", benchID)
	}
	opts, err := coreOptions(jopt)
	if err != nil {
		t.Fatal(err)
	}
	opts.Seed, opts.MaxSteps = b.Seed, b.MaxSteps
	if seed != 0 {
		opts.Seed = seed
	}
	res, err := core.Detect(b.Workload, opts)
	if err != nil {
		t.Fatal(err)
	}
	var vals []trigger.Validation
	if jopt.Validate && !res.OOM {
		vals = core.ValidateAll(res, core.TriggerOptions{MaxSteps: 200_000, Naive: jopt.Naive})
	}
	return RenderSubject(b, res, vals, jopt.Validate)
}

// localTraceBytes runs a benchmark locally and returns its encoded trace
// plus the report a local TA-only analysis of that trace prints.
func localTraceBytes(t *testing.T, benchID string) ([]byte, string) {
	t.Helper()
	b := bench.Lookup(benchID)
	if b == nil {
		t.Fatalf("unknown benchmark %s", benchID)
	}
	res, err := core.Detect(b.Workload, core.Options{Seed: b.Seed, MaxSteps: b.MaxSteps})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Trace.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	ares, err := core.AnalyzeTrace(res.Trace, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), RenderTrace(ares)
}

func waitDone(t *testing.T, c *Client, id string) *JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return st
}

// TestSubjectRoundTrip submits a subject job over HTTP and asserts the
// served report is byte-identical to the local pipeline's rendering.
func TestSubjectRoundTrip(t *testing.T) {
	_, c := newTestServer(t, Config{})
	want := localSubjectReport(t, "MR-3274", 0, JobOptions{})

	st, err := c.SubmitSubject(SubjectRequest{Bench: "MR-3274"})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued && st.State != StateRunning && st.State != StateDone {
		t.Fatalf("unexpected initial state %q", st.State)
	}
	st = waitDone(t, c, st.ID)
	if st.State != StateDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}
	if st.Summary == "" || st.Stats == nil {
		t.Errorf("terminal status missing summary/stats: %+v", st)
	}
	got, err := c.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("served report differs from local run:\n-- served --\n%s\n-- local --\n%s", got, want)
	}
}

// TestSubjectValidateRoundTrip covers the optional triggering-module leg.
func TestSubjectValidateRoundTrip(t *testing.T) {
	_, c := newTestServer(t, Config{})
	jopt := JobOptions{Validate: true}
	want := localSubjectReport(t, "MR-3274", 0, jopt)

	st, err := c.SubmitSubject(SubjectRequest{Bench: "MR-3274", Options: jopt})
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, c, st.ID)
	if st.State != StateDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}
	got, err := c.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("validated report differs from local run:\n-- served --\n%s\n-- local --\n%s", got, want)
	}
}

// TestSubjectSeedMatchesLocal pins the wire name and meaning of a subject
// job's seed: the body {"seed": 8} with validate runs ZK-1144 at schedule
// seed 8 — detection and every controlled replay on that seed's trace —
// byte for byte what dcatch -bench ZK-1144 -seed 8 -validate prints (at
// seed 8 loop-sync analysis prunes the followerData pair the registered
// seed reports). At seed 28 the run hangs, and the job fails with
// Detect's refusal instead of a report.
func TestSubjectSeedMatchesLocal(t *testing.T) {
	_, c := newTestServer(t, Config{})
	want := localSubjectReport(t, "ZK-1144", 8, JobOptions{Validate: true})
	if want == localSubjectReport(t, "ZK-1144", 0, JobOptions{Validate: true}) {
		t.Fatal("seed 8 renders the registered seed's report; the test cannot tell them apart")
	}
	submit := func(body string) *JobStatus {
		t.Helper()
		resp, err := http.Post(c.Base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		st, err := decodeStatus(resp)
		if err != nil {
			t.Fatal(err)
		}
		return waitDone(t, c, st.ID)
	}
	st := submit(`{"bench":"ZK-1144","seed":8,"options":{"validate":true}}`)
	if st.State != StateDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}
	got, err := c.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("seed-8 report differs from the local run:\n-- served --\n%s\n-- local --\n%s", got, want)
	}

	st = submit(`{"bench":"ZK-1144","seed":28,"options":{"validate":true}}`)
	if st.State != StateFailed || !strings.Contains(st.Error, "the baseline run at seed 28 is not a correct execution") ||
		!strings.Contains(st.Error, "HANG after 150000 steps") {
		t.Fatalf("seed-28 job finished %s (%q), want failed with the incorrect-run refusal", st.State, st.Error)
	}
}

// TestTraceRoundTrip uploads a binary trace and asserts the served TA-only
// report matches a local core.AnalyzeTrace of the same bytes.
func TestTraceRoundTrip(t *testing.T) {
	_, c := newTestServer(t, Config{})
	raw, want := localTraceBytes(t, "ZK-1144")

	st, err := c.SubmitTrace(bytes.NewReader(raw), JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindTrace {
		t.Errorf("kind = %q, want %q", st.Kind, KindTrace)
	}
	st = waitDone(t, c, st.ID)
	if st.State != StateDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}
	got, err := c.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("served trace report differs from local analysis:\n-- served --\n%s\n-- local --\n%s", got, want)
	}
}

// TestTraceIncrementalScanCache is the incremental re-analysis story through
// the whole service: a server with a persistent window-scan cache analyzes a
// base upload, then a copy whose mid-trace span was edited. The second job
// misses the whole-report cache, rescans only the windows the edit touches,
// serves the rest from the scan cache, and still reports exactly what an
// uncached local analysis of the edited trace does; the hits show on
// /metrics.
func TestTraceIncrementalScanCache(t *testing.T) {
	base := testtrace.SyntheticTraceBounded(3000, 9)
	const chunk = 500
	var opts core.Options
	opts.HB.ReachBackend = hb.BackendChain
	opts.ChunkSize = chunk
	budget, err := testtrace.IncrMemBudget(base, chunk, opts.HB)
	if err != nil {
		t.Fatal(err)
	}
	opts.HB.MemBudget = budget
	edited := &trace.Trace{Program: base.Program, QueueConsumers: base.QueueConsumers,
		Recs: append([]trace.Rec(nil), base.Recs...)}
	for i := 1500; i < 1650; i++ {
		if edited.Recs[i].IsMem() {
			edited.Recs[i].StaticID += 1 << 20
		}
	}
	local, err := core.AnalyzeTrace(edited, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !local.Chunked {
		t.Fatal("local oracle did not take the chunked path")
	}
	windows := int64(len(hb.ChunkWindows(len(base.Recs), chunk, 0)))

	rec := obs.New()
	sc, err := scancache.New(scancache.Config{Dir: t.TempDir(), Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	_, c := newTestServer(t, Config{ScanCache: sc, Obs: rec})
	jopt := JobOptions{Reach: "chain", ChunkSize: chunk, MemBudget: budget}
	run := func(tr *trace.Trace) string {
		st, err := c.SubmitTrace(bytes.NewReader(tr.Encode()), jopt)
		if err != nil {
			t.Fatal(err)
		}
		if st = waitDone(t, c, st.ID); st.State != StateDone || st.CacheHit {
			t.Fatalf("job finished %s (cache_hit=%v): %s", st.State, st.CacheHit, st.Error)
		}
		rep, err := c.Report(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return string(rep)
	}
	run(base)
	cold := rec.Counters()
	if cold["scancache.misses"] != windows || cold["scancache.hits"] != 0 {
		t.Fatalf("base upload: %d hits / %d misses over %d windows, want every window scanned and stored",
			cold["scancache.hits"], cold["scancache.misses"], windows)
	}
	if got := run(edited); got != RenderTrace(local) {
		t.Fatalf("served report of the edited trace differs from the uncached local analysis:\n-- served --\n%s\n-- local --\n%s", got, RenderTrace(local))
	}
	warm := rec.Counters()
	if m := warm["scancache.misses"] - windows; m <= 0 || m >= windows || warm["scancache.hits"] != windows-m {
		t.Errorf("edited upload: %d hits / %d misses over %d windows, want only the dirty windows rescanned",
			warm["scancache.hits"], m, windows)
	}

	resp, err := http.Get(c.Base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("dcatch_scancache_hits %d\n", warm["scancache.hits"]); !strings.Contains(string(body), want) {
		t.Errorf("/metrics missing %q", want)
	}
}

// fragmentReader yields its data in fixed-size fragments, modelling a slow
// client whose upload arrives in many small reads.
type fragmentReader struct {
	data  []byte
	chunk int
}

func (f *fragmentReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, io.EOF
	}
	n := f.chunk
	if n > len(f.data) {
		n = len(f.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, f.data[:n])
	f.data = f.data[n:]
	return n, nil
}

// TestTraceStreamingIngest drives submitTrace with a deliberately fragmented
// body and asserts analysis starts during the upload — per-segment telemetry
// and provisional candidates land on the job before the body ends — while
// the final report stays byte-identical to the batch path.
func TestTraceStreamingIngest(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	raw, want := localTraceBytes(t, "ZK-1144")

	const chunk = 4 << 10
	req := httptest.NewRequest("POST", "/v1/jobs", nil)
	j, err := s.submitTrace(&fragmentReader{data: raw, chunk: chunk}, req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := s.WaitTerminal(ctx, j.id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}
	j.mu.Lock()
	rep := string(j.result.report)
	j.mu.Unlock()
	if rep != want {
		t.Errorf("streamed-ingest report differs from local analysis:\n-- served --\n%s\n-- local --\n%s", rep, want)
	}

	ctr := j.rec.Counters()
	wantSegs := int64((len(raw) + chunk - 1) / chunk)
	if ctr["serve.upload_segments"] != wantSegs {
		t.Errorf("serve.upload_segments = %d, want %d", ctr["serve.upload_segments"], wantSegs)
	}
	if ctr["stream.provisional_candidates"] == 0 {
		t.Error("no provisional candidates surfaced during ingest")
	}
	if ctr["stream.frontier_peak_bytes"] == 0 {
		t.Error("stream.frontier_peak_bytes not recorded")
	}
	var segSpans int
	for _, sd := range j.rec.Spans(0) {
		if sd.Name == "serve.segment" {
			segSpans++
		}
	}
	if segSpans == 0 || segSpans > maxSegmentSpans {
		t.Errorf("serve.segment spans = %d, want 1..%d", segSpans, maxSegmentSpans)
	}
	if _, ok := j.rec.HistogramData()["stream.append_lag_us"]; !ok {
		t.Error("stream.append_lag_us histogram missing from job telemetry")
	}
	// After the handler returned, this upload's frontier contribution must
	// have been withdrawn from the live gauge.
	if got := s.streamFrontier.Load(); got != 0 {
		t.Errorf("stream.frontier_bytes gauge = %d after ingest, want 0", got)
	}
}

// TestTraceUploadTrailingPadding uploads a small valid trace followed by
// megabytes of padding. The padding is read (it is part of the body and of
// the cache key) but must not be held: the ingest's allocations stay far
// below the padding's size, and the report is the unpadded trace's.
func TestTraceUploadTrailingPadding(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	raw, want := localTraceBytes(t, "ZK-1144")
	const padding = 16 << 20
	body := append(append([]byte{}, raw...), make([]byte, padding)...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	req := httptest.NewRequest("POST", "/v1/jobs", nil)
	j, err := s.submitTrace(&fragmentReader{data: body, chunk: uploadSegmentBytes}, req)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > padding/4 {
		t.Errorf("ingest of a %d-byte trace with %d bytes of padding allocated %d bytes", len(raw), padding, got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := s.WaitTerminal(ctx, j.id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}
	j.mu.Lock()
	rep := string(j.result.report)
	j.mu.Unlock()
	if rep != want {
		t.Errorf("padded upload's report differs from local analysis:\n-- served --\n%s\n-- local --\n%s", rep, want)
	}
}

// TestCacheHit resubmits identical jobs and asserts the repeats are served
// from the content-addressed cache without re-running analysis.
func TestCacheHit(t *testing.T) {
	s, c := newTestServer(t, Config{})

	st1, err := c.SubmitSubject(SubjectRequest{Bench: "ZK-1144"})
	if err != nil {
		t.Fatal(err)
	}
	st1 = waitDone(t, c, st1.ID)
	if st1.State != StateDone || st1.CacheHit {
		t.Fatalf("first run: state=%s cache_hit=%v", st1.State, st1.CacheHit)
	}
	rep1, err := c.Report(st1.ID)
	if err != nil {
		t.Fatal(err)
	}

	st2, err := c.SubmitSubject(SubjectRequest{Bench: "ZK-1144"})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit || st2.State != StateDone {
		t.Fatalf("resubmission: state=%s cache_hit=%v, want immediate cached done", st2.State, st2.CacheHit)
	}
	rep2, err := c.Report(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep1, rep2) {
		t.Error("cached report differs from original")
	}

	// The registered seed spelled out is the same job.
	st2, err = c.SubmitSubject(SubjectRequest{Bench: "ZK-1144", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit {
		t.Error("seed 1, ZK-1144's registered seed, missed the cache")
	}

	// A different seed or different options miss the cache.
	for _, req := range []SubjectRequest{
		{Bench: "ZK-1144", Seed: 2},
		{Bench: "ZK-1144", Options: JobOptions{MaxGroup: 1000}},
	} {
		st3, err := c.SubmitSubject(req)
		if err != nil {
			t.Fatal(err)
		}
		if st3.CacheHit {
			t.Errorf("%+v should not hit the cache", req)
		}
		waitDone(t, c, st3.ID)
	}

	// parallel= cannot change report bytes, so it is not part of the key:
	// the same upload at another setting hits.
	raw, _ := localTraceBytes(t, "ZK-1144")
	st4, err := c.SubmitTrace(bytes.NewReader(raw), JobOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st4.CacheHit {
		t.Error("first trace upload hit the cache")
	}
	waitDone(t, c, st4.ID)
	st5, err := c.SubmitTrace(bytes.NewReader(raw), JobOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !st5.CacheHit || st5.State != StateDone {
		t.Errorf("same upload with another parallel=: state=%s cache_hit=%v, want a cache hit", st5.State, st5.CacheHit)
	}

	counters := s.rec.Counters()
	if counters["serve.cache.hits"] != 3 {
		t.Errorf("serve.cache.hits = %d, want 3", counters["serve.cache.hits"])
	}
	if counters["serve.jobs.executed"] != 4 {
		t.Errorf("serve.jobs.executed = %d, want 4 (cache hit must not re-run analysis)", counters["serve.jobs.executed"])
	}
	if counters["serve.jobs.submitted"] != 7 {
		t.Errorf("serve.jobs.submitted = %d, want 7", counters["serve.jobs.submitted"])
	}
}

// TestQueueFull429 fills the one-deep queue deterministically (the single
// worker is parked on a channel) and asserts a further HTTP submission gets
// 429 with Retry-After rather than blocking.
func TestQueueFull429(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	block := make(chan struct{})
	started := make(chan struct{})
	mkRun := func(name string, start chan struct{}) func() (*jobResult, error) {
		return func() (*jobResult, error) {
			if start != nil {
				close(start)
			}
			<-block
			return &jobResult{report: []byte(name), summary: name}, nil
		}
	}

	j1, err := s.mgr.submit(KindSubject, "fake", "key-1", 0, jobTelemetry{}, mkRun("one", started))
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker owns job 1 now
	j2, err := s.mgr.submit(KindSubject, "fake", "key-2", 0, jobTelemetry{}, mkRun("two", nil))
	if err != nil {
		t.Fatal(err) // queue has exactly one free slot
	}

	resp, err := http.Post(c.Base+"/v1/jobs", "application/json",
		strings.NewReader(`{"bench":"MR-3274"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After header")
	}
	if got := s.rec.Counters()["serve.rejected.queue_full"]; got != 1 {
		t.Errorf("serve.rejected.queue_full = %d, want 1", got)
	}

	close(block)
	for _, j := range []*job{j1, j2} {
		select {
		case <-j.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s did not finish after unblocking", j.id)
		}
	}
}

// TestCancelReleasesAdmission parks one job on most of the memory budget,
// lets a second job block in admission, cancels it, and asserts the worker
// slot is usable again while the first job still holds its budget.
func TestCancelReleasesAdmission(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, QueueDepth: 8, MemBudget: 100})
	block := make(chan struct{})
	started := make(chan struct{})

	j1, err := s.mgr.submit(KindSubject, "fake", "adm-1", 80, jobTelemetry{}, func() (*jobResult, error) {
		close(started)
		<-block
		return &jobResult{report: []byte("one"), summary: "one"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	j2, err := s.mgr.submit(KindSubject, "fake", "adm-2", 80, jobTelemetry{}, func() (*jobResult, error) {
		return &jobResult{report: []byte("two"), summary: "two"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the second worker is parked inside memGate.acquire.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mgr.mem.mu.Lock()
		waiting := len(s.mgr.mem.waiters)
		s.mgr.mem.mu.Unlock()
		if waiting == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job 2 never blocked in memory admission")
		}
		time.Sleep(time.Millisecond)
	}

	if err := s.mgr.cancelJob(j2.id); err != nil {
		t.Fatal(err)
	}
	select {
	case <-j2.done:
	case <-time.After(10 * time.Second):
		t.Fatal("canceled job did not reach a terminal state")
	}
	st := j2.status()
	if st.State != StateCanceled {
		t.Fatalf("job 2 state = %s, want canceled", st.State)
	}
	if !strings.Contains(st.Error, "memory admission") {
		t.Errorf("job 2 error = %q, want admission-wait cancellation", st.Error)
	}
	if got := s.mgr.mem.inUse(); got != 80 {
		t.Errorf("mem in use after cancel = %d, want 80 (only job 1)", got)
	}

	// The freed worker slot runs a small job to completion even though job 1
	// still holds 80 of 100 bytes.
	j3, err := s.mgr.submit(KindSubject, "fake", "adm-3", 10, jobTelemetry{}, func() (*jobResult, error) {
		return &jobResult{report: []byte("three"), summary: "three"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j3.done:
	case <-time.After(10 * time.Second):
		t.Fatal("small job did not run: canceled job leaked its worker slot")
	}
	if st := j3.status(); st.State != StateDone {
		t.Fatalf("job 3 state = %s, want done", st.State)
	}

	close(block)
	<-j1.done
	// Job 1's budget is returned by the worker after its terminal state.
	for end := time.Now().Add(5 * time.Second); s.mgr.mem.inUse() != 0; {
		if time.Now().After(end) {
			t.Fatalf("mem in use = %d after all jobs finished, want 0", s.mgr.mem.inUse())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentClients drives 16 concurrent submissions (mixed subject and
// uploaded-trace jobs) and asserts every served report is byte-identical to
// the corresponding local run.
func TestConcurrentClients(t *testing.T) {
	_, c := newTestServer(t, Config{QueueDepth: 32})
	wantMR := localSubjectReport(t, "MR-3274", 0, JobOptions{})
	wantZK := localSubjectReport(t, "ZK-1144", 0, JobOptions{})
	raw, wantTrace := localTraceBytes(t, "HB-4539")

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var (
				st   *JobStatus
				err  error
				want string
			)
			switch i % 3 {
			case 0:
				st, err = c.SubmitTrace(bytes.NewReader(raw), JobOptions{})
				want = wantTrace
			case 1:
				st, err = c.SubmitSubject(SubjectRequest{Bench: "MR-3274"})
				want = wantMR
			default:
				st, err = c.SubmitSubject(SubjectRequest{Bench: "ZK-1144"})
				want = wantZK
			}
			if err != nil {
				errs <- fmt.Errorf("client %d: submit: %w", i, err)
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			fin, err := c.Wait(ctx, st.ID)
			if err != nil {
				errs <- fmt.Errorf("client %d: wait: %w", i, err)
				return
			}
			if fin.State != StateDone {
				errs <- fmt.Errorf("client %d: job %s %s: %s", i, fin.ID, fin.State, fin.Error)
				return
			}
			got, err := c.Report(st.ID)
			if err != nil {
				errs <- fmt.Errorf("client %d: report: %w", i, err)
				return
			}
			if string(got) != want {
				errs <- fmt.Errorf("client %d: served report diverges from local run", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestShutdownDrains verifies graceful drain: accepted jobs finish, new
// submissions are refused with 503, health reports draining.
func TestShutdownDrains(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	started := make(chan struct{})
	j, err := s.mgr.submit(KindSubject, "fake", "drain-1", 0, jobTelemetry{}, func() (*jobResult, error) {
		close(started)
		time.Sleep(50 * time.Millisecond)
		return &jobResult{report: []byte("drained"), summary: "drained"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Shutdown(ctx)

	select {
	case <-j.done:
	default:
		t.Error("shutdown returned before the accepted job finished")
	}
	if st := j.status(); st.State != StateDone {
		t.Errorf("drained job state = %s, want done", st.State)
	}

	if _, err := c.SubmitSubject(SubjectRequest{Bench: "MR-3274"}); err == nil {
		t.Error("submission after shutdown succeeded, want 503")
	} else {
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
			t.Errorf("submission after shutdown: %v, want HTTP 503", err)
		}
	}
	resp, err := http.Get(c.Base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", resp.StatusCode)
	}
}

// TestBadInputs covers rejection paths: malformed trace uploads, unknown
// benchmarks, unknown option fields, oversized bodies, premature report
// fetches and unknown job IDs.
func TestBadInputs(t *testing.T) {
	raw, _ := localTraceBytes(t, "HB-4539")
	// The limit admits the valid trace but not the padded upload below.
	s, c := newTestServer(t, Config{Workers: 1, MaxBodyBytes: int64(len(raw)) + 1024})

	resp, err := http.Post(c.Base+"/v1/jobs", "application/octet-stream",
		strings.NewReader("not a trace"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage trace upload: %d, want 400", resp.StatusCode)
	}

	if _, err := c.SubmitSubject(SubjectRequest{Bench: "NO-SUCH"}); err == nil {
		t.Error("unknown benchmark accepted")
	}

	resp, err = http.Post(c.Base+"/v1/jobs", "application/json",
		strings.NewReader(`{"bench":"MR-3274","bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown JSON field: %d, want 400", resp.StatusCode)
	}

	// A valid trace with oversized trailing padding: decoding succeeds, but
	// hashing the remainder trips the body limit.
	padded := append(append([]byte(nil), raw...), make([]byte, 4<<10)...)
	resp, err = http.Post(c.Base+"/v1/jobs", "application/octet-stream",
		bytes.NewReader(padded))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d, want 413", resp.StatusCode)
	}

	if _, err := c.Report("j999999"); err == nil {
		t.Error("report for unknown job succeeded")
	}
	resp, err = http.Get(c.Base + "/v1/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status: %d, want 404", resp.StatusCode)
	}

	// A queued-but-unfinished job's report is 409.
	block := make(chan struct{})
	defer close(block)
	j, err := s.mgr.submit(KindSubject, "fake", "unfinished", 0, jobTelemetry{}, func() (*jobResult, error) {
		<-block
		return &jobResult{report: []byte("x"), summary: "x"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(c.Base + "/v1/jobs/" + j.id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("unfinished report fetch: %d, want 409", resp.StatusCode)
	}
}

// TestStaleScanOption pins compatibility with clients one version behind: a
// scan= query parameter on a trace upload (every mode rendered the same bytes)
// is ignored, recognised value or not, and the report is byte-identical to
// the same upload without it; options.scan in a subject-job body is an
// unknown field like any other, as are the retired multi-seed union's seeds
// list and the stage-skip switches.
func TestStaleScanOption(t *testing.T) {
	_, c := newTestServer(t, Config{})
	raw, want := localTraceBytes(t, "ZK-1144")
	for _, tc := range []struct {
		name, contentType, query, body string
		wantStatus                     int // 0 = accepted, report must equal want
	}{
		{name: "upload without scan", query: ""},
		{name: "upload scan=auto", query: "?scan=auto"},
		{name: "upload scan=epoch", query: "?scan=epoch"},
		{name: "upload scan=interval", query: "?scan=interval"},
		{name: "upload scan=quadratic", query: "?scan=quadratic"},
		{name: "upload scan=bogus", query: "?scan=bogus"},
		{name: "subject options.scan", contentType: "application/json",
			body: `{"bench":"ZK-1144","options":{"scan":"epoch"}}`, wantStatus: http.StatusBadRequest},
		{name: "subject seeds", contentType: "application/json",
			body: `{"bench":"ZK-1144","seeds":[1,28]}`, wantStatus: http.StatusBadRequest},
		{name: "subject options.skip_prune", contentType: "application/json",
			body: `{"bench":"ZK-1144","options":{"skip_prune":true}}`, wantStatus: http.StatusBadRequest},
		{name: "subject options.skip_loop_sync", contentType: "application/json",
			body: `{"bench":"ZK-1144","options":{"skip_loop_sync":true}}`, wantStatus: http.StatusBadRequest},
	} {
		contentType, body := "application/octet-stream", raw
		if tc.contentType != "" {
			contentType, body = tc.contentType, []byte(tc.body)
		}
		resp, err := http.Post(c.Base+"/v1/jobs"+tc.query, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if tc.wantStatus != 0 {
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus || !strings.Contains(string(msg), "unknown field") {
				t.Errorf("%s: status %d %s, want %d unknown field", tc.name, resp.StatusCode, msg, tc.wantStatus)
			}
			continue
		}
		st, err := decodeStatus(resp)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		st = waitDone(t, c, st.ID)
		got, err := c.Report(st.ID)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != want {
			t.Errorf("%s: report differs from the upload without scan=", tc.name)
		}
	}
}

// TestListOrder checks GET /v1/jobs returns submission order.
func TestListOrder(t *testing.T) {
	_, c := newTestServer(t, Config{})
	st1, err := c.SubmitSubject(SubjectRequest{Bench: "ZK-1144"})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.SubmitSubject(SubjectRequest{Bench: "MR-3274"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, st1.ID)
	waitDone(t, c, st2.ID)
	resp, err := http.Get(c.Base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs: %s: %v", resp.Status, err)
	}
	if len(list) != 2 || list[0].ID != st1.ID || list[1].ID != st2.ID {
		t.Errorf("list order = %+v, want [%s %s]", list, st1.ID, st2.ID)
	}
}

// WaitTerminal blocks until the job leaves the queue/run states or the
// context expires.
func (s *Server) WaitTerminal(ctx context.Context, id string) (JobStatus, error) {
	j, ok := s.mgr.get(id)
	if !ok {
		return JobStatus{}, fmt.Errorf("serve: unknown job %s", id)
	}
	select {
	case <-j.done:
		return j.status(), nil
	case <-ctx.Done():
		return j.status(), ctx.Err()
	}
}
