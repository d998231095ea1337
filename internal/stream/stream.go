// Package stream analyzes a trace while it is still being written: the
// batch pipeline fed online. Records are ingested as they decode (typically
// straight off trace.StreamDecoder), provisional candidates are emitted long
// before the trace ends, and Finish() produces a report byte-identical to
// hb.Build + detect.Find over the same records (DESIGN.md §13).
//
// Two modes share the Analyzer:
//
//   - Non-eager (default): IngestBatch runs each record, when Provisional is
//     set, through an online engine — hb.Deriver's edge derivation, a
//     resumable chain-clock sweep and per-location epoch lists — that emits
//     EventCandidate as soon as a concurrent conflicting pair appears, and
//     AppendTrace hands over the complete decoded trace. The online edge set
//     lacks Rule-Eserial (a fixed point over the whole graph) and applies no
//     subsampling, so provisional candidates are a best-effort superset of
//     the final report; Finish runs the authoritative batch engine and emits
//     EventRetract for every provisional pair the final report does not
//     confirm.
//
//   - Eager windowed (Eager with ChunkSize > 0): AppendTrace analyzes
//     windows the moment they fill — the window engine (internal/window) —
//     and releases records behind the current window, bounding live memory
//     to roughly one window. Finish is then byte-identical to the reference,
//     hb.BuildChunked + detect.FindChunked.
package stream

import (
	"time"
	"unsafe"

	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/scancache"
	"dcatch/internal/trace"
)

// recSize is the in-memory footprint of one record header, the unit of the
// analyzer's live-memory accounting (stack slices and strings are interned
// by the decoder and shared, so the header array dominates growth).
const recSize = int64(unsafe.Sizeof(trace.Rec{}))

// Options configures an Analyzer.
type Options struct {
	// HB is the per-graph happens-before configuration. LoopReads is
	// ignored (streaming is trace analysis: no focused run, no Rule-Mpull),
	// matching core.AnalyzeTrace.
	HB hb.Config

	// Detect tunes candidate detection.
	Detect detect.Options

	// ChunkSize enables windowed analysis: in eager mode it is the window
	// length; in non-eager mode it is the fallback window length when the
	// full closure exceeds HB.MemBudget, exactly as core.AnalyzeTrace's
	// chunked fallback. 0 disables both. Consecutive windows share
	// ChunkSize/4 records (the hb.ChunkConfig default).
	ChunkSize int

	// Eager analyzes windows as they fill and releases records behind the
	// current window. Requires ChunkSize > 0.
	Eager bool

	// Provisional runs the online candidate engine over ingested records
	// (non-eager mode only), emitting EventCandidate/EventRetract through
	// OnEvent.
	Provisional bool

	// OnEvent, when non-nil, receives streaming events synchronously from
	// IngestBatch/AppendTrace (candidates) and Finish (retractions).
	OnEvent func(Event)

	// Cache, when non-nil, memoizes per-window scans in both the eager
	// windowed mode and the non-eager chunked fallback: a window whose
	// record bytes and wire-expressible options match a cached entry skips
	// its graph build and scan entirely, folding the cached canonical DCWS
	// bytes through the merger instead. Results stay byte-identical to an
	// uncached run by construction. Options outside the wire-expressible
	// subset disable the lookup (see scancache.SpecFor).
	Cache *scancache.Cache

	// Obs, when non-nil, receives the analyzer's own metrics:
	// stream.frontier_peak_bytes (high-water counter; the live
	// stream.frontier_bytes gauge is the caller's, fed from FrontierBytes)
	// and stream.append_lag_us (per-batch processing latency histogram),
	// plus the chunked-fallback notice as a progress line. Per-graph spans
	// still flow through HB.Obs / Detect.Obs.
	Obs *obs.Recorder
}

// EventKind enumerates streaming events.
type EventKind uint8

// Streaming event kinds.
const (
	// EventCandidate: a provisional candidate pair appeared (first
	// occurrence of its callstack pair).
	EventCandidate EventKind = iota
	// EventRetract: a provisional candidate was not confirmed by the final
	// report (suppressed by Rule-Eserial ordering discovered at Finish, or
	// subsampled away).
	EventRetract
)

func (k EventKind) String() string {
	if k == EventCandidate {
		return "candidate"
	}
	return "retract"
}

// Event is one streaming notification.
type Event struct {
	Kind EventKind
	// Records is how many records had been ingested when the event fired.
	Records int
	// Pair is the candidate. The analyzer retains it for deduplication;
	// callers must not mutate it.
	Pair *detect.Pair
}

// Result is what Finish produces — the same facts core.AnalyzeTrace derives
// from the batch pipeline, so callers can fill identical stats.
type Result struct {
	// Report is the final candidate report; nil when OOM.
	Report *detect.Report
	// OOM is set when the closure exceeded the memory budget (and, if
	// Chunked is also set, so did some fallback window).
	OOM bool
	// Err is the budget error behind OOM.
	Err error
	// Chunked is set when the report came from windowed analysis.
	Chunked bool

	HBVertices int
	HBEdges    int
	HBMemBytes int64
	Backend    string

	// Graph is the full HB graph (non-chunked success only).
	Graph *hb.Graph
}

// Analyzer is the streaming pipeline instance. Not safe for concurrent use.
type Analyzer struct {
	opts Options
	tr   *trace.Trace // non-eager: the adopted trace; eager: metadata only

	prov *provisional
	win  *windowed

	count    int // records ingested or appended
	peakLive int64
	done     *Result
}

// New returns an analyzer.
func New(opts Options) *Analyzer {
	opts.HB.LoopReads = nil
	a := &Analyzer{opts: opts, tr: &trace.Trace{}}
	if opts.Eager && opts.ChunkSize > 0 {
		a.win = newWindowed(a)
	} else if opts.Provisional {
		a.prov = newProvisional(a)
	}
	return a
}

// Records returns how many records have been ingested or appended.
func (a *Analyzer) Records() int { return a.count }

// SetSpans points the heavy phases' instrumentation at sp: the hb.build and
// detect spans opened at Finish nest under it. Ingest-then-finish callers
// (dcatch-serve) open the analysis span only when the finish actually runs —
// after queue admission — not at construction. Eager mode reads HB.Obs
// while windows close, so there it must be set before AppendTrace.
func (a *Analyzer) SetSpans(sp *obs.Span) {
	a.opts.HB.Obs = sp
	a.opts.Detect.Obs = sp
	if a.win != nil {
		a.win.eng = a.win.eng.Under(sp)
	}
}

// IngestBatch runs the next records of a trace through the online
// provisional engine without buffering them — for ingest loops whose decoder
// already retains the records (serve uploads, dcatch-trace -follow), which
// hand the complete decoded trace to AppendTrace before Finish. The batch's
// processing latency goes into the stream.append_lag_us histogram: how far
// the analyzer falls behind the wire per delivery. Ignored in eager mode
// (which must buffer its own windows) and after Finish.
func (a *Analyzer) IngestBatch(rs []trace.Rec) {
	if len(rs) == 0 || a.done != nil || a.win != nil {
		return
	}
	t0 := time.Now()
	if a.prov != nil {
		for i := range rs {
			a.prov.add(a.count+i, &rs[i])
		}
	}
	a.count += len(rs)
	a.noteLive()
	a.opts.Obs.Observe("stream.append_lag_us", time.Since(t0).Microseconds())
	a.opts.Obs.CountMax("stream.frontier_peak_bytes", a.FrontierBytes())
}

// AppendTrace hands the analyzer the whole decoded trace with its metadata
// (the program name, and the queue consumer counts Rule-Eserial's
// single-consumer test reads); call it once, before Finish. Non-eager mode adopts the record slice without
// copying and runs the provisional engine over the records past the prefix
// IngestBatch already fed it. Eager mode cuts, analyzes and releases windows
// as it walks the records.
func (a *Analyzer) AppendTrace(tr *trace.Trace) {
	if a.done != nil {
		return
	}
	a.tr.Program, a.tr.QueueConsumers = tr.Program, tr.QueueConsumers
	if a.win != nil {
		for i := range tr.Recs {
			a.win.append(tr.Recs[i])
			a.count++
			a.noteLive()
		}
		return
	}
	a.tr.Recs = tr.Recs
	if a.prov != nil {
		for i := a.count; i < len(tr.Recs); i++ {
			a.prov.add(i, &tr.Recs[i])
		}
	}
	a.count = len(tr.Recs)
	a.noteLive()
}

// FrontierBytes returns the online sweep's current clock footprint — the
// stream.frontier_bytes gauge. Zero without the provisional engine.
func (a *Analyzer) FrontierBytes() int64 {
	if a.prov == nil {
		return 0
	}
	return a.prov.frontierBytes()
}

// liveBytes returns the analyzer's current record-buffer footprint plus the
// online sweep frontier: the part of the live set that scales with the
// stream (per-window graphs are accounted at their peak, see PeakLiveBytes).
func (a *Analyzer) liveBytes() int64 {
	held := int64(len(a.tr.Recs))
	if a.win != nil {
		held = int64(len(a.win.buf))
	}
	return held*recSize + a.FrontierBytes()
}

// PeakLiveBytes returns the high-water mark of liveBytes plus, in eager
// mode, the window graph alive while each window was analyzed. This is the
// footprint the eager mode bounds; the batch path's equivalent is the whole
// decoded trace plus the full closure.
func (a *Analyzer) PeakLiveBytes() int64 { return a.peakLive }

func (a *Analyzer) noteLive() {
	if lv := a.liveBytes(); lv > a.peakLive {
		a.peakLive = lv
	}
}

func (a *Analyzer) notePeak(extra int64) {
	if lv := a.liveBytes() + extra; lv > a.peakLive {
		a.peakLive = lv
	}
}

func (a *Analyzer) emit(ev Event) {
	if a.opts.OnEvent != nil {
		a.opts.OnEvent(ev)
	}
}

// Finish completes the analysis and returns the final result. Non-eager:
// the authoritative batch engine runs over the adopted trace —
// byte-identical to core.AnalyzeTrace's trace-analysis stage by
// construction — and provisional candidates it does not confirm are
// retracted. Eager: the tail window is closed (exactly when hb.ChunkWindows
// would have one) and the merged report is returned.
// Finish is idempotent.
func (a *Analyzer) Finish() *Result {
	if a.done != nil {
		return a.done
	}
	if a.win != nil {
		a.done = a.win.finish()
		return a.done
	}
	res := a.finishBatch()
	if a.prov != nil && !res.OOM {
		a.prov.retract(res.Report)
	}
	a.done = res
	return res
}

// finishBatch mirrors core.AnalyzeTrace's trace-analysis body: full build,
// then the windowed fallback when the closure exceeds the budget.
func (a *Analyzer) finishBatch() *Result {
	cfg := a.opts.HB
	dopt := a.opts.Detect
	g, err := hb.Build(a.tr, cfg)
	if err != nil {
		if a.opts.ChunkSize <= 0 {
			return &Result{OOM: true, Err: err}
		}
		a.opts.Obs.Logf("trace analysis: budget exceeded, falling back to %d-record windows", a.opts.ChunkSize)
		return a.replayWindows()
	}
	rep := detect.Find(g, dopt)
	return &Result{
		Report:     rep,
		HBVertices: g.N(),
		HBEdges:    g.Edges(),
		HBMemBytes: g.MemBytes(),
		Backend:    g.Backend().String(),
		Graph:      g,
	}
}
