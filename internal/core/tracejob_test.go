package core_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"dcatch/internal/cluster"
	"dcatch/internal/core"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/scancache"
	"dcatch/internal/stream"
	"dcatch/internal/testtrace"
	"dcatch/internal/trace"
)

// TestTraceJobMatchesAnalyzeTrace pins what dcatch-trace -follow and serve
// uploads promise: a TraceJob fed the encoded bytes in small segments ends
// in the Result AnalyzeTrace computes on the decoded trace — under a binding
// budget with the chunked fallback and a scan cache, the options a second
// hand-built stream.Options is quickest to forget. The job runs with the
// provisional engine on (an onEvent, as -follow and uploads pass) and off.
// Each side runs cold then warm against its own cache; report, Chunked,
// Stats and the cache's hit/miss counters must agree at both steps.
func TestTraceJobMatchesAnalyzeTrace(t *testing.T) {
	tr := testtrace.SyntheticTraceBounded(3000, 11)
	const chunk = 500
	var opts core.Options
	opts.HB.ReachBackend = hb.BackendChain
	opts.ChunkSize = chunk
	budget, err := testtrace.IncrMemBudget(tr, chunk, opts.HB)
	if err != nil {
		t.Fatal(err)
	}
	opts.HB.MemBudget = budget
	raw := tr.Encode()

	batch := func(o core.Options) (*core.Result, error) {
		dec, err := trace.Decode(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		return core.AnalyzeTrace(dec, o)
	}
	streamed := func(onEvent func(stream.Event)) func(core.Options) (*core.Result, error) {
		return func(o core.Options) (*core.Result, error) {
			job, err := core.NewTraceJob(o, nil, onEvent)
			if err != nil {
				return nil, err
			}
			for off := 0; off < len(raw); off += 200 {
				if _, err := job.Feed(raw[off:min(off+200, len(raw))]); err != nil {
					return nil, err
				}
			}
			if !job.Done() {
				t.Fatal("job not done after the last segment")
			}
			return job.Finish()
		}
	}

	type outcome struct {
		report       string
		chunked, oom bool
		stats        core.Stats
		hits, misses int64
	}
	run := func(analyze func(core.Options) (*core.Result, error)) (steps [2]outcome) {
		rec := obs.New()
		sc, err := scancache.New(scancache.Config{Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.ScanCache = sc
		for i := range steps {
			res, err := analyze(o)
			if err != nil {
				t.Fatal(err)
			}
			out := outcome{chunked: res.Chunked, oom: res.OOM, stats: res.Stats}
			out.stats.AnalysisTime = 0
			if !res.OOM {
				out.report = res.Final.Format(nil)
			}
			ctr := rec.Counters()
			out.hits, out.misses = ctr["scancache.hits"], ctr["scancache.misses"]
			steps[i] = out
		}
		return steps
	}

	want := run(batch)
	if !want[0].chunked || want[0].oom || want[0].misses == 0 || want[1].hits != want[0].misses {
		t.Fatalf("oracle did not take the cached chunked path: cold %+v, warm hits %d", want[0].stats, want[1].hits)
	}
	var events int
	for _, mode := range []struct {
		name    string
		onEvent func(stream.Event)
	}{
		{"provisional", func(stream.Event) { events++ }},
		{"no provisional", nil},
	} {
		got := run(streamed(mode.onEvent))
		for i, step := range []string{"cold", "warm"} {
			if got[i] != want[i] {
				t.Errorf("%s, %s: TraceJob diverged from AnalyzeTrace:\n got chunked=%v oom=%v hits=%d misses=%d stats=%+v\nwant chunked=%v oom=%v hits=%d misses=%d stats=%+v\nreports equal: %v",
					mode.name, step, got[i].chunked, got[i].oom, got[i].hits, got[i].misses, got[i].stats,
					want[i].chunked, want[i].oom, want[i].hits, want[i].misses, want[i].stats,
					got[i].report == want[i].report)
			}
		}
	}
	if events == 0 {
		t.Error("the provisional engine emitted no event: the provisional run did not exercise it")
	}
}

// TestTraceJobFinishOnce pins that a second Finish returns the first Result
// without analyzing, or counting its candidates, again.
func TestTraceJobFinishOnce(t *testing.T) {
	rec := obs.New()
	job, _ := core.NewTraceJob(core.Options{Obs: rec}, nil, nil)
	if _, err := job.Feed(testtrace.SyntheticTraceBounded(500, 13).Encode()); err != nil {
		t.Fatal(err)
	}
	first, err := job.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want := rec.Counters()["core.candidates.final.callstack"]
	if want == 0 {
		t.Fatal("first Finish recorded no final candidates")
	}
	second, err := job.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatal("second Finish built a new Result")
	}
	if got := rec.Counters()["core.candidates.final.callstack"]; got != want {
		t.Fatalf("core.candidates.final.callstack = %d after two Finishes, want %d", got, want)
	}
}

// TestTraceJobFeedAfterSeal pins that bytes fed to a sealed job are refused,
// not silently dropped.
func TestTraceJobFeedAfterSeal(t *testing.T) {
	raw := testtrace.SyntheticTraceBounded(500, 13).Encode()
	job, _ := core.NewTraceJob(core.Options{}, nil, nil)
	if _, err := job.Feed(raw); err != nil {
		t.Fatal(err)
	}
	if _, err := job.Seal(); err != nil {
		t.Fatal(err)
	}
	if n, err := job.Feed(raw); err == nil {
		t.Fatalf("Feed after Seal = %d, nil; want an error", n)
	}
}

// TestCoordinatedTraceJobReleasesGoroutines: a coordinated job leaves no
// peer sender, request or connection goroutine behind — after Finish, after
// Close without Finish (an upload canceled while queued, its windows still
// in flight), and with each called twice. Its report is the single-node
// chunked run's over the same options.
func TestCoordinatedTraceJobReleasesGoroutines(t *testing.T) {
	tr := testtrace.SyntheticTraceBounded(3000, 11)
	const chunk = 500
	budget, err := testtrace.IncrMemBudget(tr, chunk, hb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{ChunkSize: chunk}
	opts.HB.MemBudget = budget
	ref, err := core.AnalyzeTrace(tr, opts)
	if err != nil || ref.OOM || !ref.Chunked {
		t.Fatalf("reference did not take the chunked path: %v", err)
	}
	want := ref.Final.Format(nil)
	raw := tr.Encode()

	worker := cluster.NewWorker(cluster.WorkerConfig{Scans: 2})
	var peers []string
	for range 2 {
		mux := http.NewServeMux()
		mux.HandleFunc("POST "+cluster.ScanPath, func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(20 * time.Millisecond) // keeps windows in flight when Close lands
			worker.ServeHTTP(w, r)
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		peers = append(peers, ts.URL)
	}
	// The cases run in this goroutine, not subtests, so the count compares
	// like with like.
	base := runtime.NumGoroutine()
	settle := func(after string) {
		t.Helper()
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			http.DefaultTransport.(*http.Transport).CloseIdleConnections()
			time.Sleep(5 * time.Millisecond)
		}
		if n > base {
			t.Fatalf("%d goroutines after %s, %d before", n, after, base)
		}
	}
	fed := func() *core.TraceJob {
		t.Helper()
		job, err := core.NewTraceJob(opts, peers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Feed(raw); err != nil {
			t.Fatal(err)
		}
		return job
	}
	finish := func(job *core.TraceJob) *core.Result {
		t.Helper()
		res, err := job.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if res.OOM || !res.Chunked || res.Final.Format(nil) != want {
			t.Fatalf("coordinated report differs from the single-node chunked one (oom %v, chunked %v)", res.OOM, res.Chunked)
		}
		return res
	}

	finish(fed())
	settle("Finish")

	job := fed()
	first := finish(job)
	if second := finish(job); second != first {
		t.Error("second Finish built a new Result")
	}
	job.Close()
	job.Close()
	settle("Finish twice and Close twice")

	job = fed()
	job.Close()
	settle("Close without Finish")
	job.Close()
	settle("a second Close")
	if _, err := job.Finish(); err == nil {
		t.Error("Finish after Close succeeded")
	}
	if _, err := job.Feed(raw); err == nil {
		t.Error("Feed after Close succeeded")
	}
}
