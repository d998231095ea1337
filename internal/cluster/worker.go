package cluster

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"dcatch/internal/lifecycle"
	"dcatch/internal/obs"
	"dcatch/internal/scancache"
	"dcatch/internal/trace"
	"dcatch/internal/window"
)

// WorkerConfig configures the worker side of the window-scan RPC.
type WorkerConfig struct {
	// Scans caps concurrent window scans. A request arriving while every
	// slot is busy is answered 429 + Retry-After immediately — the
	// coordinator's backoff, not a server-side queue, absorbs the burst —
	// so a saturated worker stays responsive. Default 1.
	Scans int

	// MaxBodyBytes caps the encoded segment size (default 64 MiB).
	MaxBodyBytes int64

	// Admit, when non-nil, charges the scan against the host's memory
	// gate before any decoding: it blocks until `need` bytes are granted,
	// the context times out (the request is then answered 429), or the
	// gate is closed. The returned release runs when the scan finishes.
	// This is how dcatch-serve makes remote windows count against the
	// same admission budget as local jobs.
	Admit func(ctx context.Context, need int64) (release func(), err error)

	// AdmitTimeout bounds the admission wait (default 2s).
	AdmitTimeout time.Duration

	// Drain, when non-nil, tracks in-flight scans for graceful shutdown;
	// once closing, new scans are refused with 503.
	Drain *lifecycle.Drainer

	// Obs receives cluster.worker.* counters, histograms and spans.
	Obs *obs.Recorder

	// Cache, when non-nil, memoizes window scans across jobs and
	// coordinators: a request whose window records and wire options match a
	// cached entry is answered from the cache without charging a scan slot
	// or the admission gate, and every fresh scan populates the cache.
	Cache *scancache.Cache
}

// Worker is the http.Handler serving ScanPath: it decodes its assigned
// segment, scans it with the window engine, and returns the serialized
// detect.WindowScan.
type Worker struct {
	cfg WorkerConfig
	sem chan struct{}
}

// NewWorker builds a worker handler.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Scans <= 0 {
		cfg.Scans = 1
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.AdmitTimeout <= 0 {
		cfg.AdmitTimeout = 2 * time.Second
	}
	return &Worker{cfg: cfg, sem: make(chan struct{}, cfg.Scans)}
}

func (w *Worker) busy(rw http.ResponseWriter, counter string) {
	w.cfg.Obs.Count(counter, 1)
	rw.Header().Set("Retry-After", "1")
	http.Error(rw, "cluster: worker busy", http.StatusTooManyRequests)
}

// acquire takes a scan slot and the host's admission grant for one scan, or
// answers 429 and returns ok false. release gives both back.
func (w *Worker) acquire(rw http.ResponseWriter, r *http.Request, need int64) (release func(), ok bool) {
	select {
	case w.sem <- struct{}{}:
	default:
		w.busy(rw, "cluster.worker.rejected_busy")
		return nil, false
	}
	admitted := func() {}
	if w.cfg.Admit != nil {
		ctx, cancel := context.WithTimeout(r.Context(), w.cfg.AdmitTimeout)
		rel, err := w.cfg.Admit(ctx, need)
		cancel()
		if err != nil {
			<-w.sem
			w.busy(rw, "cluster.worker.rejected_admission")
			return nil, false
		}
		admitted = rel
	}
	return func() { admitted(); <-w.sem }, true
}

// ServeHTTP answers one window-scan request. A scan needs a slot and an
// admission grant; a cache hit needs neither. So a worker with a cache
// decodes the body first — the key is a field hash of the window's records,
// the same key the coordinator derives from its window view — and answers a
// hit even when every slot is busy, while a worker without one has nothing
// to answer for free and refuses a request it has no slot for before reading
// its body.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if w.cfg.Drain != nil {
		if !w.cfg.Drain.Enter() {
			w.cfg.Obs.Count("cluster.worker.rejected_draining", 1)
			http.Error(rw, "cluster: worker draining", http.StatusServiceUnavailable)
			return
		}
		defer w.cfg.Drain.Exit()
	}
	req, err := parseScanRequest(r.URL.Query())
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	hcfg, dopts, err := req.scanConfigs()
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	eng := window.New(hcfg, dopts, w.cfg.Cache)
	slotFirst := !eng.Caching()
	if slotFirst {
		release, ok := w.acquire(rw, r, req.MemBudget)
		if !ok {
			return
		}
		defer release()
	}
	tr, err := trace.Decode(http.MaxBytesReader(rw, r.Body, w.cfg.MaxBodyBytes))
	if err != nil {
		http.Error(rw, fmt.Sprintf("cluster: bad segment: %v", err), http.StatusBadRequest)
		return
	}
	key, res, hit := eng.Lookup(tr)
	if hit {
		w.cfg.Obs.Count("cluster.worker.cache_hits", 1)
	} else {
		if !slotFirst {
			release, ok := w.acquire(rw, r, req.MemBudget)
			if !ok {
				return
			}
			defer release()
		}
		if res, err = w.scan(eng, key, tr, req); err != nil {
			// The coordinator re-runs failed windows locally; a
			// budget-exceeded window will fail there too and surface as the
			// job's OOM result, exactly as the single-node replay reports it.
			http.Error(rw, fmt.Sprintf("cluster: window scan failed: %v", err), http.StatusInternalServerError)
			return
		}
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Header().Set(headerBackend, res.Backend)
	rw.Header().Set(headerMemBytes, fmt.Sprint(res.MemBytes))
	rw.Header().Set(headerRecords, fmt.Sprint(len(tr.Recs)))
	rw.Write(res.Encoded())
}

// scan runs the engine on a window the cache did not hold, under the
// worker's own span and counters.
func (w *Worker) scan(eng *window.Engine, key scancache.Key, tr *trace.Trace, req ScanRequest) (window.Result, error) {
	t0 := time.Now()
	sp := w.cfg.Obs.Span("cluster.worker.scan")
	defer sp.End()
	sp.Attr("window", req.Window)
	sp.Attr("start", req.Start)
	sp.Attr("records", len(tr.Recs))
	res, err := eng.Under(sp).Fresh(key, tr, req.Start, req.Start+len(tr.Recs))
	if err != nil {
		return res, err
	}
	sp.Attr("backend", res.Backend)
	sp.Attr("candidates", res.Scan.Candidates())
	w.cfg.Obs.Count("cluster.worker.scans", 1)
	w.cfg.Obs.Count("cluster.worker.records", int64(len(tr.Recs)))
	w.cfg.Obs.Observe("cluster.worker.scan_us", time.Since(t0).Microseconds())
	return res, nil
}
