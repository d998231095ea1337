package window_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/scancache"
	"dcatch/internal/testtrace"
	"dcatch/internal/trace"
	"dcatch/internal/window"
)

// oraclePayload is the engine's specification: the canonical encoding of
// detect.ScanGraph over hb.Build of the same view.
func oraclePayload(t *testing.T, view *trace.Trace, hcfg hb.Config, dopts detect.Options) []byte {
	t.Helper()
	g, err := hb.Build(view, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	ws := detect.ScanGraph(g, dopts)
	if ws.Candidates() == 0 {
		t.Fatal("window has no candidates; the comparison is vacuous")
	}
	return ws.Encode()
}

// TestEngineAgainstOracle drives one window through every cache state the
// engine distinguishes and compares each answer with the oracle.
func TestEngineAgainstOracle(t *testing.T) {
	tr := testtrace.SyntheticTraceBounded(1500, 3)
	const lo, hi = 400, 1000
	view := tr.Window(lo, hi)
	snapshot := func() []trace.Rec {
		recs := make([]trace.Rec, len(tr.Recs))
		for i, r := range tr.Recs {
			r.Stack = append([]int32(nil), r.Stack...)
			recs[i] = r
		}
		return recs
	}
	before := snapshot()

	plain := hb.Config{ReachBackend: hb.BackendChain}
	type env struct {
		cache *scancache.Cache
		rec   *obs.Recorder
		key   scancache.Key
	}
	cases := []struct {
		name  string
		hcfg  hb.Config
		dopts detect.Options
		// prepare puts the cache into the state the case is about.
		prepare func(t *testing.T, e *env)
		// counters the scan must move by exactly these amounts.
		hits, misses, corrupt int64
		cached                bool
		entries               int // cache entries once the scan returns
	}{
		{name: "miss", hcfg: plain, misses: 1, entries: 1},
		{name: "hit", hcfg: plain, hits: 1, cached: true, entries: 1,
			prepare: func(t *testing.T, e *env) {
				if _, err := window.New(plain, detect.Options{}, e.cache).Scan(view, lo, hi); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "corrupt entry", hcfg: plain, hits: 1, corrupt: 1, entries: 1,
			prepare: func(t *testing.T, e *env) {
				e.cache.Put(e.key, scancache.Entry{Payload: []byte("DCWS but not a scan"), Backend: "chain", Records: hi - lo})
			}},
		{name: "ablation", hcfg: hb.Config{ReachBackend: hb.BackendChain, DisableRPC: true}},
		{name: "suppress pull", hcfg: plain, dopts: detect.Options{SuppressPull: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := &env{rec: obs.New()}
			var err error
			if e.cache, err = scancache.New(scancache.Config{Dir: t.TempDir(), Obs: e.rec}); err != nil {
				t.Fatal(err)
			}
			if spec, ok := scancache.SpecFor(tc.hcfg, tc.dopts); ok {
				e.key = spec.KeyTrace(view)
			}
			if tc.prepare != nil {
				tc.prepare(t, e)
			}
			want := oraclePayload(t, view, tc.hcfg, tc.dopts)
			c0 := e.rec.Counters()

			brec := obs.New()
			sp := brec.Span("test")
			res, err := window.New(tc.hcfg, tc.dopts, e.cache).Under(sp).Scan(view, lo, hi)
			sp.End()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Encoded(), want) {
				t.Error("payload differs from detect.ScanGraph(hb.Build(view)).Encode()")
			}
			if res.Cached != tc.cached {
				t.Errorf("Cached = %v, want %v", res.Cached, tc.cached)
			}
			if built := countSpans(brec.Spans(0), "hb.build"); (built == 0) != tc.cached || built > 1 {
				t.Errorf("%d graphs built, Cached = %v", built, tc.cached)
			}
			c1 := e.rec.Counters()
			for _, d := range []struct {
				name string
				want int64
			}{{"scancache.hits", tc.hits}, {"scancache.misses", tc.misses}, {"scancache.corrupt", tc.corrupt}} {
				if got := c1[d.name] - c0[d.name]; got != d.want {
					t.Errorf("%s moved by %d, want %d", d.name, got, d.want)
				}
			}
			if e.cache.Len() != tc.entries {
				t.Errorf("cache holds %d entries, want %d", e.cache.Len(), tc.entries)
			}
			if tc.entries > 0 {
				// Whatever was there before, the cache now serves the oracle's bytes.
				ent, ok := e.cache.Get(e.key)
				if !ok || !bytes.Equal(ent.Payload, want) || ent.MemBytes != res.MemBytes || ent.Backend != res.Backend || ent.Records != hi-lo {
					t.Errorf("stored entry does not reproduce the scan (found=%v)", ok)
				}
			}
			// A scan handed to a merger is the caller's own: merging it must
			// not disturb what the cache serves next time.
			detect.NewChunkMerger(tc.dopts).Merge(res.Scan, lo)
			again, err := window.New(tc.hcfg, tc.dopts, e.cache).Scan(view, lo, hi)
			if err != nil || !bytes.Equal(again.Encoded(), want) {
				t.Errorf("rescan after a merge differs from the oracle (err=%v)", err)
			}
		})
	}

	t.Run("over budget", func(t *testing.T) {
		hcfg := hb.Config{ReachBackend: hb.BackendChain, MemBudget: 1}
		_, berr := hb.Build(view, hcfg)
		if berr == nil {
			t.Fatal("a 1-byte budget admitted the window")
		}
		cache, err := scancache.New(scancache.Config{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = window.New(hcfg, detect.Options{}, cache).Scan(view, lo, hi)
		if want := fmt.Sprintf("hb: chunk [%d,%d): %v", lo, hi, berr); err == nil || err.Error() != want {
			t.Errorf("error %q, want %q", err, want)
		}
		if cache.Len() != 0 {
			t.Error("a failed window was stored")
		}
	})

	if !reflect.DeepEqual(before, snapshot()) {
		t.Error("scanning a zero-copy view modified the trace's records")
	}
}

func countSpans(spans []obs.SpanData, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
		n += countSpans(s.Children, name)
	}
	return n
}
