package core_test

import (
	"bytes"
	"sync"
	"testing"

	"dcatch/internal/bench"
	"dcatch/internal/core"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/scancache"
	"dcatch/internal/trace"
)

// TestTraceJobMatchesAnalyzeTrace pins what dcatch-trace -follow and serve
// uploads promise: a TraceJob fed the encoded bytes in small segments ends
// in the Result AnalyzeTrace computes on the decoded trace — under a binding
// budget with the chunked fallback and a scan cache, the options a second
// hand-built stream.Options is quickest to forget. Each side runs cold then
// warm against its own cache; report, Chunked, Stats and the cache's
// hit/miss counters must agree at both steps.
func TestTraceJobMatchesAnalyzeTrace(t *testing.T) {
	tr := bench.SyntheticTraceBounded(3000, 11)
	const chunk = 500
	var opts core.Options
	opts.HB.ReachBackend = hb.BackendChain
	opts.ChunkSize = chunk
	budget, err := bench.IncrMemBudget(tr, chunk, opts.HB)
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
	streamed := func(o core.Options) (*core.Result, error) {
		job := core.NewTraceJob(o, nil)
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

	want, got := run(batch), run(streamed)
	if !want[0].chunked || want[0].oom || want[0].misses == 0 || want[1].hits != want[0].misses {
		t.Fatalf("oracle did not take the cached chunked path: cold %+v, warm hits %d", want[0].stats, want[1].hits)
	}
	for i, step := range []string{"cold", "warm"} {
		if got[i] != want[i] {
			t.Errorf("%s: TraceJob diverged from AnalyzeTrace:\n got chunked=%v oom=%v hits=%d misses=%d stats=%+v\nwant chunked=%v oom=%v hits=%d misses=%d stats=%+v\nreports equal: %v",
				step, got[i].chunked, got[i].oom, got[i].hits, got[i].misses, got[i].stats,
				want[i].chunked, want[i].oom, want[i].hits, want[i].misses, want[i].stats,
				got[i].report == want[i].report)
		}
	}
}

// TestTraceJobsNeverBuildIndex pins that trace analysis — full graph or
// windows — only sweeps its graphs: no job builds the reachability index
// (hb.reach.materialized stays 0), and a point query on the full job's graph
// afterwards builds it exactly once, however many goroutines ask.
func TestTraceJobsNeverBuildIndex(t *testing.T) {
	tr := bench.SyntheticTraceBounded(3000, 12)
	const chunk = 500
	budget, err := bench.IncrMemBudget(tr, chunk, hb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, chunked := range []bool{false, true} {
		rec := obs.New()
		opts := core.Options{Obs: rec}
		if chunked {
			opts.ChunkSize, opts.HB.MemBudget = chunk, budget
		}
		res, err := core.AnalyzeTrace(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.OOM || res.Chunked != chunked {
			t.Fatalf("chunked=%v: job took the wrong path (chunked %v, oom %v)", chunked, res.Chunked, res.OOM)
		}
		if v, ok := rec.Counters()["hb.reach.materialized"]; !ok || v != 0 {
			t.Fatalf("chunked=%v: hb.reach.materialized = %d (present %v), want 0", chunked, v, ok)
		}
		if chunked {
			continue
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res.Graph.HappensBefore(w, res.Graph.N()-1)
			}()
		}
		wg.Wait()
		if v := rec.Counters()["hb.reach.materialized"]; v != 1 {
			t.Fatalf("hb.reach.materialized = %d after point queries, want 1", v)
		}
	}
}

// TestTraceJobFinishOnce pins that a second Finish returns the first Result
// without analyzing, or counting its candidates, again.
func TestTraceJobFinishOnce(t *testing.T) {
	rec := obs.New()
	job := core.NewTraceJob(core.Options{Obs: rec}, nil)
	if _, err := job.Feed(bench.SyntheticTraceBounded(500, 13).Encode()); err != nil {
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
	raw := bench.SyntheticTraceBounded(500, 13).Encode()
	job := core.NewTraceJob(core.Options{}, nil)
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
