// Package window is the one window engine: "build an HB graph for records
// [lo,hi) and scan it" (paper §7.2: chunk the trace and detect within each
// chunk), with the scan cache consulted around it. Every windowed topology —
// the streaming analyzer's eager mode and chunked replay, the cluster
// coordinator and its workers — calls Engine.Scan (or its Lookup / Fresh /
// Store parts) and folds the results through Fold; the window list comes
// from hb.WindowCutter. Topologies differ only in who calls Scan and where
// the records come from (DESIGN.md §16).
package window

import (
	"fmt"

	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/scancache"
	"dcatch/internal/trace"
)

// Engine scans windows under one job's analysis options. Safe for concurrent
// use.
type Engine struct {
	hcfg  hb.Config
	dopts detect.Options
	// cache is nil when the job has none or its options carry state the key
	// cannot express (scancache.SpecFor); the engine then never touches it.
	cache *scancache.Cache
	spec  scancache.Spec
}

// New returns the engine for one job. Each window's build and scan is
// single-threaded; callers shard by window.
func New(hcfg hb.Config, dopts detect.Options, cache *scancache.Cache) *Engine {
	e := &Engine{hcfg: hcfg, dopts: dopts}
	if cache != nil {
		if spec, ok := scancache.SpecFor(hcfg, dopts); ok {
			e.cache, e.spec = cache, spec
		}
	}
	return e
}

// Under returns a copy of the engine whose build and scan spans nest under sp.
func (e *Engine) Under(sp *obs.Span) *Engine {
	c := *e
	c.hcfg.Obs, c.dopts.Obs = sp, sp
	return &c
}

// Caching reports whether Lookup can ever hit.
func (e *Engine) Caching() bool { return e.cache != nil }

// Result is one scanned window.
type Result struct {
	// Scan is the window's candidate map, owned by the caller: a cache hit
	// decodes a fresh one, because Merge rebases record indices in place.
	Scan detect.WindowScan
	// Payload is Scan's canonical DCWS encoding when a cache hit or store
	// already produced it; Encoded fills it otherwise.
	Payload []byte
	// MemBytes and Backend describe the window's graph build (replayed from
	// the cache entry on a hit).
	MemBytes int64
	Backend  string
	// Cached is set when no graph was built.
	Cached bool
}

// Encoded returns the window's canonical DCWS bytes, encoding the scan now
// if the engine had no cache to encode it for. Call it before the scan is
// merged: Merge rebases the scan in place.
func (r *Result) Encoded() []byte {
	if r.Payload == nil {
		r.Payload = r.Scan.Encode()
	}
	return r.Payload
}

// Lookup keys the window by its record content — view may be a zero-copy
// trace.Window of live records and is only read — and probes the cache. An
// entry the decoder rejects is discarded and reported as a miss. The key is
// what Fresh and Store file the window under after a miss.
func (e *Engine) Lookup(view *trace.Trace) (scancache.Key, Result, bool) {
	if e.cache == nil {
		return scancache.Key{}, Result{}, false
	}
	key := e.spec.KeyTrace(view)
	ent, ok := e.cache.Get(key)
	if !ok {
		return key, Result{}, false
	}
	ws, err := detect.DecodeWindowScan(ent.Payload)
	if err != nil {
		e.cache.Discard(key)
		return key, Result{}, false
	}
	// An entry under this key was produced by a build with the same
	// MemBudget that succeeded; admission is deterministic, so skipping the
	// build cannot hide an over-budget window this run would have hit.
	return key, Result{Scan: ws, Payload: ent.Payload, MemBytes: ent.MemBytes, Backend: ent.Backend, Cached: true}, true
}

// Store files a window scanned elsewhere (a cluster peer's reply) under key.
func (e *Engine) Store(key scancache.Key, res *Result, records int) {
	if e.cache == nil {
		return
	}
	e.cache.Put(key, scancache.Entry{Payload: res.Encoded(), Backend: res.Backend, MemBytes: res.MemBytes, Records: records})
}

// Fresh builds and scans window [lo,hi) of the job's trace from view, with no
// cache probe, and stores the scan under key (from Lookup). A window whose
// graph exceeds the memory budget fails with the chunk error every topology
// reports.
func (e *Engine) Fresh(key scancache.Key, view *trace.Trace, lo, hi int) (Result, error) {
	g, err := hb.Build(view, e.hcfg)
	if err != nil {
		return Result{}, fmt.Errorf("hb: chunk [%d,%d): %w", lo, hi, err)
	}
	res := Result{Scan: detect.ScanGraph(g, e.dopts), MemBytes: g.MemBytes(), Backend: g.Backend().String()}
	e.Store(key, &res, len(view.Recs))
	return res, nil
}

// Scan returns window [lo,hi)'s scan: from the cache when it holds one,
// otherwise built, scanned and stored.
func (e *Engine) Scan(view *trace.Trace, lo, hi int) (Result, error) {
	key, res, hit := e.Lookup(view)
	if hit {
		return res, nil
	}
	return e.Fresh(key, view, lo, hi)
}

// Fold accumulates scanned windows, which must arrive in window order, into
// the job's report and summary: the first window's backend, the peak graph
// footprint, and the first error — after which later windows are dropped.
type Fold struct {
	merger *detect.ChunkMerger
	n      int // windows added

	Backend   string // first window's reachability backend
	PeakBytes int64  // largest per-window graph footprint
	Err       error  // first failed window's error
}

// NewFold returns an empty fold merging under dopts.
func NewFold(dopts detect.Options) *Fold {
	return &Fold{merger: detect.NewChunkMerger(dopts)}
}

// Add folds the window starting at record start, or records err.
func (f *Fold) Add(res Result, err error, start int) {
	f.n++
	if f.Err != nil {
		return
	}
	if err != nil {
		f.Err = err
		return
	}
	if f.n == 1 {
		f.Backend = res.Backend
	}
	if res.MemBytes > f.PeakBytes {
		f.PeakBytes = res.MemBytes
	}
	f.merger.Merge(res.Scan, start)
}

// Report renders the merged report; nil when a window failed. The fold must
// not be used after.
func (f *Fold) Report() *detect.Report {
	if f.Err != nil {
		return nil
	}
	return f.merger.Report()
}
