package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"dcatch/internal/core"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
)

// Wire types of the detection-service JSON API (version v1).
//
//	POST   /v1/jobs              submit a job: JSON body = SubjectRequest,
//	                             application/octet-stream body = binary trace
//	                             (options in query parameters)
//	GET    /v1/jobs              list job statuses in submission order
//	GET    /v1/jobs/{id}         one job's status
//	GET    /v1/jobs/{id}/report  the finished job's report (text/plain)
//	DELETE /v1/jobs/{id}         cancel a queued/admission-waiting job
//	GET    /healthz              liveness + queue depth
//	GET    /debug/vars,/debug/pprof/  shared obs.DebugMux
//
// A full queue answers 429 with a Retry-After header; an oversized body
// answers 413. Submissions are content-addressed: resubmitting an identical
// job (same benchmark/seeds/options, or byte-identical trace and options)
// is served from the report cache without re-running analysis.

// Job kinds.
const (
	KindSubject = "subject" // registered benchmark + seeds + options
	KindTrace   = "trace"   // uploaded binary trace, analyzed TA-only
)

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobOptions is the remotely selectable subset of core.Options. Every field
// maps onto the matching dcatch CLI flag so any local invocation can be
// replayed through the service byte-for-byte.
type JobOptions struct {
	// Full enables unselective memory tracing (dcatch -full). Subject jobs only.
	Full bool `json:"full,omitempty"`
	// SkipPrune / SkipLoopSync disable pipeline stages. Subject jobs only.
	SkipPrune    bool `json:"skip_prune,omitempty"`
	SkipLoopSync bool `json:"skip_loop_sync,omitempty"`
	// Parallelism is how many windows the chunked fallback analyses
	// concurrently (dcatch-trace -parallel); reports are byte-identical at
	// any setting, so it is not part of the report-cache key.
	Parallelism int `json:"parallelism,omitempty"`
	// Reach selects the reachability backend: "", "dense", "chain", "auto"
	// (dcatch -reach).
	Reach string `json:"reach,omitempty"`
	// MemBudget bounds analysis reachability memory in bytes; it also
	// drives the service's admission control (a job is not started until
	// its budget fits under the server-wide memory budget).
	MemBudget int64 `json:"mem_budget,omitempty"`
	// ChunkSize enables the chunked-analysis fallback (records per window).
	ChunkSize int `json:"chunk_size,omitempty"`
	// MaxGroup caps records per memory location in detection.
	MaxGroup int `json:"max_group,omitempty"`
	// Validate runs the triggering module on every final report pair
	// (dcatch -validate); Naive disables placement analysis. Subject jobs only.
	Validate bool `json:"validate,omitempty"`
	Naive    bool `json:"naive,omitempty"`
}

// SubjectRequest is the JSON submission body for a subject job.
type SubjectRequest struct {
	Bench string `json:"bench"`
	// Seeds are the schedule seeds to run and union (core.DetectMulti);
	// empty means the benchmark's registered seed.
	Seeds   []int64    `json:"seeds,omitempty"`
	Options JobOptions `json:"options"`
}

// JobStatus is the externally visible state of one job.
type JobStatus struct {
	ID       string `json:"id"`
	Kind     string `json:"kind"`
	Bench    string `json:"bench,omitempty"`
	State    string `json:"state"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	// OOM mirrors core.Result.OOM: analysis exceeded its memory budget and
	// the report carries only the summary (the local CLI exits 1 on this).
	OOM      bool        `json:"oom,omitempty"`
	Error    string      `json:"error,omitempty"`
	Summary  string      `json:"summary,omitempty"`
	Stats    *core.Stats `json:"stats,omitempty"`
	Created  time.Time   `json:"created"`
	Started  *time.Time  `json:"started,omitempty"`
	Finished *time.Time  `json:"finished,omitempty"`
}

// errorBody is the JSON error envelope for non-2xx responses.
type errorBody struct {
	Error string `json:"error"`
}

// JobMetricsVersion is bumped whenever the per-job metrics schema changes
// incompatibly.
const JobMetricsVersion = 1

// JobMetrics is the versioned per-job telemetry snapshot served by
// GET /v1/jobs/{id}/metrics: the counters, histograms and span timeline the
// job's analysis recorded (the service-side queue-wait, admission-wait and
// run spans included), plus how many live events its stream dropped on slow
// consumers. Available at any point in the job's life; an unfinished job
// reports its spans so far.
type JobMetrics struct {
	SchemaVersion int                          `json:"job_metrics_version"`
	ID            string                       `json:"id"`
	Kind          string                       `json:"kind"`
	State         string                       `json:"state"`
	CacheHit      bool                         `json:"cache_hit,omitempty"`
	Counters      map[string]int64             `json:"counters"`
	Histograms    map[string]obs.HistogramData `json:"histograms"`
	Spans         []obs.SpanData               `json:"spans"`
	EventsDropped int64                        `json:"events_dropped"`
}

// coreOptions translates JobOptions into core.Options; seed 0 keeps the
// caller's default. The error reports an unusable option value.
func coreOptions(o JobOptions) (core.Options, error) {
	var opts core.Options
	opts.FullTrace = o.Full
	opts.SkipPrune = o.SkipPrune
	opts.SkipLoopSync = o.SkipLoopSync
	opts.HB.Parallelism = o.Parallelism
	opts.HB.MemBudget = o.MemBudget
	opts.ChunkSize = o.ChunkSize
	opts.Detect.MaxGroup = o.MaxGroup
	if o.Reach != "" {
		backend, err := hb.ParseBackend(o.Reach)
		if err != nil {
			return opts, fmt.Errorf("serve: %w", err)
		}
		opts.HB.ReachBackend = backend
	}
	return opts, nil
}

// optionsKey canonicalizes JobOptions for cache keying, leaving out what
// cannot change report bytes (Parallelism). JSON with fixed field order is
// canonical here because JobOptions is a flat struct.
func optionsKey(o JobOptions) string {
	o.Parallelism = 0
	buf, err := json.Marshal(o)
	if err != nil { // flat struct of scalars: cannot fail
		panic(err)
	}
	return string(buf)
}

// subjectCacheKey is the content address of a subject job: benchmark,
// seeds and canonical options.
func subjectCacheKey(bench string, seeds []int64, o JobOptions) string {
	h := sha256.New()
	fmt.Fprintf(h, "subject|%s|%v|%s", bench, seeds, optionsKey(o))
	return hex.EncodeToString(h.Sum(nil))
}

// traceCacheKey is the content address of a trace job: the SHA-256 of the
// uploaded bytes (computed while streaming the upload) plus canonical
// options.
func traceCacheKey(bodySHA []byte, o JobOptions) string {
	h := sha256.New()
	fmt.Fprintf(h, "trace|%x|%s", bodySHA, optionsKey(o))
	return hex.EncodeToString(h.Sum(nil))
}
