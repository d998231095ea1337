package stream_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/scancache"
	"dcatch/internal/stream"
	"dcatch/internal/testtrace"
	"dcatch/internal/trace"
)

// runWindowed analyzes tr on the windowed path (non-eager chunked fallback
// or eager windows) with an optional scan cache and returns the formatted
// report.
func runWindowed(t *testing.T, tr *trace.Trace, hcfg hb.Config, dopts detect.Options, chunk int, eager bool, sc *scancache.Cache) string {
	t.Helper()
	an := stream.New(stream.Options{HB: hcfg, Detect: dopts, ChunkSize: chunk, Eager: eager, Cache: sc})
	an.AppendTrace(tr)
	sr := an.Finish()
	if sr.OOM {
		t.Fatalf("analysis failed: %v", sr.Err)
	}
	if !sr.Chunked {
		t.Fatal("analysis did not take the windowed path")
	}
	return sr.Report.Format(nil)
}

func openCache(t *testing.T, dir string, rec *obs.Recorder) *scancache.Cache {
	t.Helper()
	sc, err := scancache.New(scancache.Config{Dir: dir, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// mutateSpan returns a copy of tr with the StaticIDs of the memory accesses
// in its middle pct% of records rebased — the trace a rerun after a localized
// code edit produces: most windows byte-identical, the edited region's not.
func mutateSpan(tr *trace.Trace, pct int) *trace.Trace {
	cp := *tr
	cp.Recs = append([]trace.Rec(nil), tr.Recs...)
	n := len(cp.Recs)
	for i := n / 2; i < n/2+n*pct/100; i++ {
		if cp.Recs[i].IsMem() {
			cp.Recs[i].StaticID += 1 << 20
		}
	}
	return &cp
}

// TestCacheDifferentialByteIdentity: over every backend × replay-pipeline
// depth on the chunked path, a cache-populating run and a warm rerun against
// the populated persistent directory must both be byte-identical to the
// uncached oracle, and the warm rerun must not miss. A rerun of the trace
// with a mutated mid-trace span then rescans only the windows the span
// touches, and still equals its own uncached oracle.
func TestCacheDifferentialByteIdentity(t *testing.T) {
	tr := testtrace.SyntheticTraceBounded(3000, 5)
	const chunk = 500
	mut := mutateSpan(tr, 5)
	windows := int64(len(hb.ChunkWindows(len(tr.Recs), chunk, 0)))
	for _, backend := range []hb.Backend{hb.BackendDense, hb.BackendChain} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s-par%d", backend, par), func(t *testing.T) {
				hcfg := hb.Config{ReachBackend: backend, Parallelism: par}
				budget, err := testtrace.IncrMemBudget(tr, chunk, hcfg)
				if err != nil {
					t.Fatal(err)
				}
				hcfg.MemBudget = budget
				dopts := detect.Options{}
				want := runWindowed(t, tr, hcfg, dopts, chunk, false, nil)

				dir := t.TempDir()
				if got := runWindowed(t, tr, hcfg, dopts, chunk, false, openCache(t, dir, obs.New())); got != want {
					t.Fatal("cache-populating run diverged from the uncached oracle")
				}
				rec := obs.New()
				if got := runWindowed(t, tr, hcfg, dopts, chunk, false, openCache(t, dir, rec)); got != want {
					t.Fatal("warm cached run diverged from the uncached oracle")
				}
				ctr := rec.Counters()
				if ctr["scancache.misses"] != 0 || ctr["scancache.hits"] == 0 {
					t.Errorf("warm rerun hits=%d misses=%d, want all hits", ctr["scancache.hits"], ctr["scancache.misses"])
				}

				mutWant := runWindowed(t, mut, hcfg, dopts, chunk, false, nil)
				if mutWant == want {
					t.Fatal("mutation did not change the report; the rerun would prove nothing")
				}
				rec = obs.New()
				if got := runWindowed(t, mut, hcfg, dopts, chunk, false, openCache(t, dir, rec)); got != mutWant {
					t.Fatal("rerun of the mutated trace diverged from its uncached oracle")
				}
				ctr = rec.Counters()
				if m := ctr["scancache.misses"]; m == 0 || m >= windows || ctr["scancache.hits"] != windows-m {
					t.Errorf("mutated rerun hits=%d misses=%d of %d windows, want only the dirty windows rescanned",
						ctr["scancache.hits"], m, windows)
				}
			})
		}
	}
}

// TestCacheEagerByteIdentity: the eager windowed mode with a cache must
// reproduce the uncached eager report exactly, and a second analyzer over
// the same persistent directory must serve every window from the cache.
func TestCacheEagerByteIdentity(t *testing.T) {
	tr := testtrace.SyntheticTraceBounded(3000, 6)
	hcfg := hb.Config{ReachBackend: hb.BackendChain}
	want := runWindowed(t, tr, hcfg, detect.Options{}, 500, true, nil)

	dir := t.TempDir()
	if got := runWindowed(t, tr, hcfg, detect.Options{}, 500, true, openCache(t, dir, obs.New())); got != want {
		t.Fatal("eager cache-populating run diverged")
	}
	rec := obs.New()
	if got := runWindowed(t, tr, hcfg, detect.Options{}, 500, true, openCache(t, dir, rec)); got != want {
		t.Fatal("eager warm run diverged")
	}
	if ctr := rec.Counters(); ctr["scancache.misses"] != 0 || ctr["scancache.hits"] == 0 {
		t.Errorf("eager warm rerun hits=%d misses=%d, want all hits", ctr["scancache.hits"], ctr["scancache.misses"])
	}
}

// TestCacheCorruptionDifferential flips a payload byte in every persisted
// cache file: the checksum must reject each entry (miss, file removed), the
// rerun must rescan everything, and the report must stay byte-identical.
func TestCacheCorruptionDifferential(t *testing.T) {
	tr := testtrace.SyntheticTraceBounded(2000, 7)
	const chunk = 500
	hcfg := hb.Config{ReachBackend: hb.BackendChain}
	budget, err := testtrace.IncrMemBudget(tr, chunk, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	hcfg.MemBudget = budget
	want := runWindowed(t, tr, hcfg, detect.Options{}, chunk, false, nil)

	dir := t.TempDir()
	if got := runWindowed(t, tr, hcfg, detect.Options{}, chunk, false, openCache(t, dir, obs.New())); got != want {
		t.Fatal("cache-populating run diverged")
	}
	var corrupted int
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)-3] ^= 0xFF
		corrupted++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 {
		t.Fatal("no cache files to corrupt")
	}

	rec := obs.New()
	if got := runWindowed(t, tr, hcfg, detect.Options{}, chunk, false, openCache(t, dir, rec)); got != want {
		t.Fatal("rerun over a corrupted cache diverged from the oracle")
	}
	ctr := rec.Counters()
	if ctr["scancache.hits"] != 0 {
		t.Errorf("%d hits served from corrupted files", ctr["scancache.hits"])
	}
	if ctr["scancache.corrupt"] != int64(corrupted) {
		t.Errorf("corrupt=%d, want %d (one per flipped file)", ctr["scancache.corrupt"], corrupted)
	}

	// The corrupted files were removed and rewritten by the rerun: a final
	// run must be all hits again.
	rec2 := obs.New()
	if got := runWindowed(t, tr, hcfg, detect.Options{}, chunk, false, openCache(t, dir, rec2)); got != want {
		t.Fatal("post-repair run diverged")
	}
	if ctr := rec2.Counters(); ctr["scancache.misses"] != 0 {
		t.Errorf("post-repair run missed %d windows", ctr["scancache.misses"])
	}
}
