// Package serve is dcatch's detection-as-a-service subsystem: a long-running
// HTTP front-end that accepts many concurrent analysis jobs and runs the
// existing pipeline behind a bounded worker pool.
//
// Race prediction from traces scales by throughput over many traces rather
// than by any single analysis, so the pipeline that PRs 1–3 made parallel,
// memory-bounded and observable gets a serving surface here: subject jobs
// are `dcatch -bench` run remotely (RunSubject: the full pipeline at one
// seed, optionally through the triggering module), and trace jobs analyze a
// client-uploaded binary trace TA-only via core.AnalyzeTrace. Reports are
// rendered by the same functions the CLI prints through, so a fetched
// report is byte-identical to the corresponding local run.
//
// Load discipline: a bounded queue in front of a CPU-sized worker pool;
// per-job memory-budget admission against Config.MemBudget so concurrent
// analyses cannot OOM the process past its budget; HTTP 429 + Retry-After
// when the queue is full; request-body size limits on uploads; and a
// content-addressed report cache so identical resubmissions skip analysis
// entirely. Shutdown drains accepted jobs through lifecycle.Drainer — the
// same helper the trigger controller server uses.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"dcatch/internal/bench"
	"dcatch/internal/cluster"
	"dcatch/internal/core"
	"dcatch/internal/obs"
	"dcatch/internal/scancache"
	"dcatch/internal/stream"
	"dcatch/internal/trace"
)

// Config sizes the service. Zero values select the documented defaults.
type Config struct {
	// Workers is the analysis worker-pool size (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs accepted but not yet running (default 64).
	QueueDepth int
	// MemBudget is the server-wide admission budget in bytes: the sum of
	// running jobs' declared analysis footprints never exceeds it
	// (0 = unlimited).
	MemBudget int64
	// DefaultJobBytes is the admission estimate for jobs that do not
	// declare their own HB memory budget (default 64 MiB).
	DefaultJobBytes int64
	// MaxBodyBytes caps request bodies, i.e. trace uploads (default 64 MiB).
	MaxBodyBytes int64
	// CacheEntries bounds the content-addressed report cache (default 256;
	// negative disables caching).
	CacheEntries int
	// NoJobTelemetry disables per-job recorders: jobs run with a nil
	// observer, so /v1/jobs/{id}/metrics is empty and /metrics carries only
	// service-level data. Reports are byte-identical either way.
	NoJobTelemetry bool
	// Peers lists cluster worker base URLs ("http://host:port"). Non-empty
	// makes trace jobs coordinated core.TraceJobs, whose windows (chunk_size
	// records, default cluster.DefaultChunkSize) the peers scan; reports are
	// the single-node chunked path's bytes. Subject jobs are unaffected.
	Peers []string
	// Worker exposes the window-scan RPC (POST /v1/cluster/scan), backed by
	// the same admission gate and drainer as local jobs.
	Worker bool
	// WorkerScans caps concurrent remote window scans in worker mode;
	// excess requests are answered 429 immediately (default: Workers).
	WorkerScans int
	// ScanCache, when non-nil, memoizes per-window detection scans across
	// jobs: the streaming/chunked local path, coordinator dispatch, and
	// worker-mode scan handling all consult it, so a resubmitted trace
	// with few changed records re-scans only its dirty windows. Reports
	// are byte-identical with or without it.
	ScanCache *scancache.Cache
	// Obs receives service counters and progress logs; nil allocates an
	// internal recorder (exposed via Recorder).
	Obs *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = defaultWorkers()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultJobBytes <= 0 {
		c.DefaultJobBytes = 64 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.WorkerScans <= 0 {
		c.WorkerScans = c.Workers
	}
	return c
}

// Server is the detection service: construct with New, mount Handler on an
// http.Server, and Shutdown on SIGTERM.
type Server struct {
	cfg Config
	rec *obs.Recorder
	reg *obs.Registry
	mgr *manager
	mux *http.ServeMux

	// streamFrontier sums the online sweep frontiers of trace uploads
	// currently being ingested — the stream.frontier_bytes gauge.
	streamFrontier atomic.Int64
}

// Servers registered for the shared "dcatch_serve" expvar (expvar.Publish
// is once-per-process; tests create many servers).
var (
	serveExpvarOnce sync.Once
	serveExpvarMu   sync.Mutex
	serveServers    []*Server
)

// New builds a ready-to-serve detection service.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	rec := cfg.Obs
	if rec == nil {
		rec = obs.New()
	}
	s := &Server{cfg: cfg, rec: rec, reg: obs.NewRegistry(), mgr: newManager(cfg, rec)}
	s.reg.Register(rec)
	s.registerGauges()
	s.routes()

	serveExpvarOnce.Do(func() {
		expvar.Publish("dcatch_serve", expvar.Func(func() any {
			serveExpvarMu.Lock()
			defer serveExpvarMu.Unlock()
			snaps := make([]map[string]any, 0, len(serveServers))
			for _, srv := range serveServers {
				snap := srv.mgr.statsSnapshot()
				snap["counters"] = srv.rec.Counters()
				snaps = append(snaps, snap)
			}
			return snaps
		}))
	})
	serveExpvarMu.Lock()
	serveServers = append(serveServers, s)
	serveExpvarMu.Unlock()
	return s
}

// registerGauges wires the manager's live load-discipline state into the
// registry as sampled-at-scrape gauges.
func (s *Server) registerGauges() {
	m := s.mgr
	s.reg.Gauge("serve.queue_depth", func() float64 { return float64(len(m.queue)) })
	s.reg.Gauge("serve.queue_cap", func() float64 { return float64(cap(m.queue)) })
	s.reg.Gauge("serve.workers", func() float64 { return float64(m.cfg.Workers) })
	s.reg.Gauge("serve.mem_in_use_bytes", func() float64 { return float64(m.mem.inUse()) })
	s.reg.Gauge("serve.mem_budget_bytes", func() float64 { return float64(m.cfg.MemBudget) })
	s.reg.Gauge("serve.cache_entries", func() float64 { return float64(m.cache.len()) })
	s.reg.Gauge("serve.running", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.running)
	})
	s.reg.Gauge("serve.jobs", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(len(m.jobs))
	})
	s.reg.Gauge("serve.draining", func() float64 {
		if m.draining.Load() {
			return 1
		}
		return 0
	})
	s.reg.Gauge("stream.frontier_bytes", func() float64 {
		return float64(s.streamFrontier.Load())
	})
	if sc := s.cfg.ScanCache; sc != nil {
		s.reg.Gauge("scancache.bytes", func() float64 { return float64(sc.Bytes()) })
		s.reg.Gauge("scancache.max_bytes", func() float64 { return float64(sc.MaxBytes()) })
		s.reg.Gauge("scancache.disk_bytes", func() float64 { return float64(sc.DiskBytes()) })
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains gracefully: intake stops (new submissions get 503),
// queued and running jobs finish within the context's deadline, workers
// exit. The server also leaves the shared expvar listing.
func (s *Server) Shutdown(ctx context.Context) {
	s.mgr.shutdown(ctx)
	serveExpvarMu.Lock()
	for i, srv := range serveServers {
		if srv == s {
			serveServers = append(serveServers[:i], serveServers[i+1:]...)
			break
		}
	}
	serveExpvarMu.Unlock()
}

func (s *Server) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/jobs/{id}/metrics", s.handleJobMetrics)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.cfg.Worker {
		mux.Handle("POST "+cluster.ScanPath, cluster.NewWorker(cluster.WorkerConfig{
			Scans:        s.cfg.WorkerScans,
			MaxBodyBytes: s.cfg.MaxBodyBytes,
			Drain:        &s.mgr.drain,
			Obs:          s.rec,
			Admit:        s.admitScan,
			Cache:        s.cfg.ScanCache,
		}))
	}
	dm := obs.DebugMux(s.reg)
	mux.Handle("/debug/", dm)
	mux.Handle("/metrics", dm)
	s.mux = mux
}

// admitScan charges a remote window scan against the server's admission
// budget — the worker-mode analog of runJob's memGate acquire — so a
// worker's concurrent remote windows and its own local jobs share one
// memory discipline. The context bounds the wait; on timeout the RPC is
// answered 429 and the coordinator backs off.
func (s *Server) admitScan(ctx context.Context, need int64) (func(), error) {
	if need <= 0 {
		need = s.cfg.DefaultJobBytes
	}
	if s.cfg.MemBudget > 0 && need > s.cfg.MemBudget {
		need = s.cfg.MemBudget
	}
	if err := s.mgr.mem.acquire(ctx, need); err != nil {
		return nil, err
	}
	s.rec.Count("serve.admitted.bytes", need)
	return func() { s.mgr.mem.release(need) }, nil
}

// writeJSON emits one JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError maps submission errors onto HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case errors.Is(err, ErrShuttingDown):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var (
		j   *job
		err error
	)
	if r.Header.Get("Content-Type") == "application/octet-stream" {
		j, err = s.submitTrace(body, r)
	} else {
		j, err = s.submitSubject(body)
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("serve: request body exceeds %d bytes", tooLarge.Limit)})
			return
		}
		writeError(w, err)
		return
	}
	st := j.status()
	s.rec.Logf("job %s submitted: %s %s (cache_hit=%v)", st.ID, st.Kind, st.Bench, st.CacheHit)
	writeJSON(w, http.StatusAccepted, st)
}

// submitSubject parses a SubjectRequest and enqueues the full pipeline on
// the named benchmark.
func (s *Server) submitSubject(body io.Reader) (*job, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req SubjectRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("serve: bad subject request: %w", err)
	}
	b := bench.Lookup(req.Bench)
	if b == nil {
		return nil, fmt.Errorf("serve: unknown benchmark %q", req.Bench)
	}
	jopt := req.Options
	opts, err := SubjectOptions(b, req.Seed, jopt)
	if err != nil {
		return nil, err
	}
	tel := s.newJobTelemetry()
	opts.Obs = tel.rec
	run := func() (*jobResult, error) {
		res, report, err := RunSubject(b, opts, jopt.Validate, jopt.Naive)
		if err != nil {
			return nil, err
		}
		stats := res.Stats
		return &jobResult{report: []byte(report), summary: res.Summary(), stats: &stats, oom: res.OOM}, nil
	}
	key := subjectCacheKey(req.Bench, opts.Seed, jopt)
	j, err := s.mgr.submit(KindSubject, req.Bench, key, jopt.MemBudget, tel, run)
	if err != nil {
		return nil, err
	}
	s.reg.Register(tel.rec)
	return j, nil
}

// uploadSegmentBytes is how much of the request body one ingest step reads;
// each read becomes one streaming-analysis segment.
const uploadSegmentBytes = 256 << 10

// maxSegmentSpans caps per-segment spans in the job timeline so a large
// upload (hundreds of segments) cannot swamp the span tree; segments past
// the cap still count into serve.upload_segments.
const maxSegmentSpans = 64

// submitTrace ingests a binary trace straight off the request body into a
// core.TraceJob, coordinated across Config.Peers when set: each read is
// hashed (the content address covers the whole body, trailing bytes
// included) and fed, so when the body ends the per-record work is done,
// provisional candidates are on the job's event stream, and a coordinated
// job's filled windows are dispatched. The authoritative finish runs in the
// job's run closure under the usual queue/admission discipline. Options ride
// in query parameters: parallel, reach, mem_budget, chunk_size, max_group.
func (s *Server) submitTrace(body io.Reader, r *http.Request) (*job, error) {
	jopt, err := traceQueryOptions(r)
	if err != nil {
		return nil, err
	}
	opts, err := coreOptions(jopt)
	if err != nil {
		return nil, err
	}
	tel := s.newJobTelemetry()
	opts.Obs = tel.rec
	opts.ScanCache = s.cfg.ScanCache

	var firstCand bool
	var readBytes int64
	tj, err := core.NewTraceJob(opts, s.cfg.Peers, func(ev stream.Event) {
		switch ev.Kind {
		case stream.EventCandidate:
			tel.rec.Count("stream.provisional_candidates", 1)
			if !firstCand {
				firstCand = true
				tel.rec.Logf("stream: first provisional candidate at record %d (%d body bytes in)",
					ev.Records, readBytes)
			}
		case stream.EventRetract:
			tel.rec.Count("stream.retractions", 1)
		}
	})
	if err != nil {
		return nil, err
	}

	// The live frontier gauge tracks ingests in flight; whatever this upload
	// contributed is withdrawn when the handler returns (the frontier is
	// frozen from then until the job's finish consumes it).
	var lastFrontier int64
	defer func() { s.streamFrontier.Add(-lastFrontier) }()

	tr, sum, err := readUpload(body, tel.rec, func(seg []byte) (int, error) {
		readBytes += int64(len(seg))
		_, err := tj.Feed(seg)
		cur := tj.FrontierBytes()
		s.streamFrontier.Add(cur - lastFrontier)
		lastFrontier = cur
		return len(tj.Trace().Recs), err
	}, tj.Seal)
	if err != nil {
		tj.Close()
		return nil, err
	}
	run := func() (*jobResult, error) {
		res, err := tj.Finish()
		if err != nil {
			return nil, err
		}
		stats := res.Stats
		return &jobResult{report: []byte(RenderTrace(res)), summary: res.Summary(), stats: &stats, oom: res.OOM}, nil
	}
	key := traceCacheKey(sum, jopt, tj.WindowSize())
	j, err := s.mgr.submit(KindTrace, tr.Program, key, jopt.MemBudget, tel, run)
	if err != nil {
		tj.Close()
		return nil, err
	}
	if len(s.cfg.Peers) > 0 {
		// Released on every terminal path: on a cache hit or a cancel while
		// queued run never executes, and the coordinator's senders would park.
		go func() {
			<-j.done
			tj.Close()
		}()
	}
	s.reg.Register(tel.rec)
	return j, nil
}

// readUpload is the body-reading loop of trace uploads: each read of up to
// uploadSegmentBytes is hashed, handed to feed (which returns the records
// decoded so far) and timed as a serve.segment span under serve.decode; at
// end of body seal yields the complete trace. Errors come back wrapped for
// the HTTP layer (a body past MaxBodyBytes stays matchable).
func readUpload(body io.Reader, rec *obs.Recorder, feed func(seg []byte) (records int, err error), seal func() (*trace.Trace, error)) (tr *trace.Trace, bodySHA []byte, err error) {
	h := sha256.New()
	dspan := rec.Span("serve.decode")
	defer dspan.End()
	buf := make([]byte, uploadSegmentBytes)
	seg := 0
	for {
		n, rerr := body.Read(buf)
		if n > 0 {
			var ssp *obs.Span
			if seg < maxSegmentSpans {
				ssp = rec.Span("serve.segment")
			}
			h.Write(buf[:n])
			records, ferr := feed(buf[:n])
			if ferr != nil {
				ssp.End()
				return nil, nil, fmt.Errorf("serve: bad trace upload: %w", ferr)
			}
			ssp.Attr("bytes", n)
			ssp.Attr("records", records)
			ssp.End()
			seg++
			rec.Count("serve.upload_segments", 1)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, nil, fmt.Errorf("serve: reading trace upload: %w", rerr)
		}
	}
	tr, err = seal()
	if err != nil {
		return nil, nil, fmt.Errorf("serve: bad trace upload: %w", err)
	}
	dspan.Attr("records", len(tr.Recs))
	dspan.Attr("segments", seg)
	return tr, h.Sum(nil), nil
}

// traceQueryOptions parses trace-job options from query parameters. Unknown
// parameters are ignored, which is what keeps an older client's scan= working.
func traceQueryOptions(r *http.Request) (JobOptions, error) {
	var o JobOptions
	q := r.URL.Query()
	intQ := func(name string, dst *int) error {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("serve: bad query parameter %s=%q", name, v)
			}
			*dst = n
		}
		return nil
	}
	if err := intQ("parallel", &o.Parallelism); err != nil {
		return o, err
	}
	if err := intQ("chunk_size", &o.ChunkSize); err != nil {
		return o, err
	}
	if err := intQ("max_group", &o.MaxGroup); err != nil {
		return o, err
	}
	if v := q.Get("mem_budget"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return o, fmt.Errorf("serve: bad query parameter mem_budget=%q", v)
		}
		o.MemBudget = n
	}
	o.Reach = q.Get("reach")
	return o, nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.list())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	st := j.status()
	switch st.State {
	case StateDone:
		j.mu.Lock()
		report := j.result.report
		j.mu.Unlock()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(report)
	case StateFailed:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: st.Error})
	case StateCanceled:
		writeJSON(w, http.StatusConflict, errorBody{Error: "job canceled"})
	default:
		writeJSON(w, http.StatusConflict, errorBody{Error: "job not finished: " + st.State})
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.mgr.cancelJob(r.PathValue("id")); err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	j, _ := s.mgr.get(r.PathValue("id"))
	writeJSON(w, http.StatusOK, j.status())
}

// handleHealthz is pure liveness: it reads one atomic and answers, with no
// locks shared with the job path, so probes stay cheap and truthful no
// matter how loaded the service is. Operational detail lives on /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.mgr.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: the full load-discipline snapshot —
// queue depth and capacity, admission headroom, drain state — answering 503
// while draining so load balancers stop routing before intake refuses.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	snap := s.mgr.statsSnapshot()
	if s.cfg.MemBudget > 0 {
		headroom := s.cfg.MemBudget - s.mgr.mem.inUse()
		if headroom < 0 {
			headroom = 0
		}
		snap["admission_headroom_bytes"] = headroom
	} else {
		snap["admission_headroom_bytes"] = int64(-1) // unlimited
	}
	if sc := s.cfg.ScanCache; sc != nil {
		headroom := sc.MaxBytes() - sc.Bytes()
		if headroom < 0 {
			headroom = 0
		}
		snap["scancache_headroom_bytes"] = headroom
		if sc.Persistent() {
			dh := sc.DiskMaxBytes() - sc.DiskBytes()
			if dh < 0 {
				dh = 0
			}
			snap["scancache_disk_headroom_bytes"] = dh
		}
	}
	if closing, _ := snap["closing"].(bool); closing {
		snap["status"] = "draining"
		writeJSON(w, http.StatusServiceUnavailable, snap)
		return
	}
	snap["status"] = "ok"
	writeJSON(w, http.StatusOK, snap)
}
