package window_test

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dcatch/internal/bench"
	"dcatch/internal/cluster"
	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/scancache"
	"dcatch/internal/stream"
)

// TestTopologiesMatchReference runs one trace through every topology built
// on the engine — eager stream, chunked replay at parallelism 1 and 4, a
// coordinator with live workers, a coordinator whose peers are all dead —
// and holds each to the reference, hb.BuildChunked + detect.FindChunked,
// byte for byte. The topologies also share one cache key space: a cache
// populated by any one of them answers every window of each of the others.
func TestTopologiesMatchReference(t *testing.T) {
	tr := bench.SyntheticTraceBounded(3000, 5)
	const chunk = 500
	hcfg := hb.Config{ReachBackend: hb.BackendChain}
	budget, err := bench.IncrMemBudget(tr, chunk, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	hcfg.MemBudget = budget // refuses the full graph, admits every window
	windows := len(hb.ChunkWindows(len(tr.Recs), chunk, 0))

	chunks, err := hb.BuildChunked(tr, hb.ChunkConfig{Base: hcfg, ChunkSize: chunk})
	if err != nil {
		t.Fatal(err)
	}
	ref := detect.FindChunked(chunks, detect.Options{})
	if len(ref.Pairs) == 0 {
		t.Fatal("reference report is empty; the comparison is vacuous")
	}
	want := ref.Format(nil)

	streamed := func(eager bool, p int) func(*testing.T, *scancache.Cache) string {
		return func(t *testing.T, cache *scancache.Cache) string {
			cfg := hcfg
			cfg.Parallelism = p
			an := stream.New(stream.Options{HB: cfg, ChunkSize: chunk, Eager: eager, Cache: cache})
			an.AppendTrace(tr)
			res := an.Finish()
			if res.OOM || !res.Chunked {
				t.Fatalf("OOM=%v (%v) Chunked=%v, want a windowed report", res.OOM, res.Err, res.Chunked)
			}
			if res.HBMemBytes != hb.ChunkedMemBytes(chunks) || res.Backend != "chain" {
				t.Errorf("peak %d backend %q, reference %d chain", res.HBMemBytes, res.Backend, hb.ChunkedMemBytes(chunks))
			}
			return res.Report.Format(nil)
		}
	}
	mux := http.NewServeMux()
	mux.Handle("POST "+cluster.ScanPath, cluster.NewWorker(cluster.WorkerConfig{Scans: 2}))
	live := httptest.NewServer(mux)
	defer live.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	coordinated := func(peer string, allLocal bool) func(*testing.T, *scancache.Cache) string {
		return func(t *testing.T, cache *scancache.Cache) string {
			coord, err := cluster.NewCoordinator(cluster.Config{
				Peers: []string{peer}, ChunkSize: chunk, HB: hcfg, Cache: cache,
				Retries: 1, RetryBackoff: time.Millisecond, Probation: time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			coord.Notify(tr)
			res := coord.Finish(tr)
			if res.OOM {
				t.Fatalf("coordinated job failed: %v", res.Err)
			}
			wantLocal, wantRemote := 0, windows-res.Cached
			if allLocal {
				wantLocal, wantRemote = wantRemote, 0
			}
			if res.Windows != windows || res.Local != wantLocal || res.Remote != wantRemote {
				t.Errorf("windows=%d remote=%d local=%d cached=%d, want %d windows, %d remote, %d local",
					res.Windows, res.Remote, res.Local, res.Cached, windows, wantRemote, wantLocal)
			}
			if res.PeakMemBytes != hb.ChunkedMemBytes(chunks) || res.Backend != "chain" {
				t.Errorf("peak %d backend %q, reference %d chain", res.PeakMemBytes, res.Backend, hb.ChunkedMemBytes(chunks))
			}
			return res.Report.Format(nil)
		}
	}
	topologies := []struct {
		name string
		run  func(*testing.T, *scancache.Cache) string
	}{
		{"eager", streamed(true, 1)},
		{"replay-p1", streamed(false, 1)},
		{"replay-p4", streamed(false, 4)},
		{"coordinator-live", coordinated(live.URL, false)},
		{"coordinator-all-local", coordinated(dead.URL, true)},
	}

	for _, cold := range topologies {
		t.Run(cold.name, func(t *testing.T) {
			if got := cold.run(t, nil); got != want {
				t.Fatal("uncached report differs from the reference")
			}
			rec := obs.New()
			cache, err := scancache.New(scancache.Config{Obs: rec})
			if err != nil {
				t.Fatal(err)
			}
			if got := cold.run(t, cache); got != want {
				t.Fatal("cache-populating report differs from the reference")
			}
			if cache.Len() != windows {
				t.Fatalf("cache holds %d entries after the populating run, want %d", cache.Len(), windows)
			}
			for _, warm := range topologies {
				before := rec.Counters()
				if got := warm.run(t, cache); got != want {
					t.Errorf("%s over %s's cache: report differs from the reference", warm.name, cold.name)
				}
				after := rec.Counters()
				if hits, misses := after["scancache.hits"]-before["scancache.hits"], after["scancache.misses"]-before["scancache.misses"]; misses != 0 || hits != int64(windows) {
					t.Errorf("%s over %s's cache: %d hits %d misses, want %d and 0", warm.name, cold.name, hits, misses, windows)
				}
			}
		})
	}
}
