// Package stream analyzes a trace while it is still being written: records
// are appended one at a time (typically straight off trace.StreamDecoder),
// provisional candidates are emitted long before the trace ends, and
// Finish() produces a report byte-identical to hb.Build + detect.Find over
// the same records (DESIGN.md §13).
//
// Two modes share the Analyzer:
//
//   - Non-eager (default): Append accumulates the trace and, when
//     Provisional is set, drives an online engine — incremental chain
//     assignment, online program-order and pair-rule edges, a resumable
//     chain-clock sweep, and per-location epoch lists — that emits
//     EventCandidate as soon as a concurrent conflicting pair appears.
//     The online edge set lacks Rule-Eserial (a fixed point over the whole
//     graph) and applies no subsampling, so provisional candidates are a
//     best-effort superset of the final report; Finish runs the
//     authoritative batch engine and emits EventRetract for every
//     provisional pair the final report does not confirm.
//
//   - Eager windowed (Eager with ChunkSize > 0): windows are analyzed the
//     moment they fill — the window engine (internal/window) fed from the
//     wire — and records behind the current window are released, bounding
//     live memory to roughly one window. Finish is then byte-identical to
//     the reference, hb.BuildChunked + detect.FindChunked, over the same
//     window list (Windows() exposes it, so manual Flush boundaries stay
//     testable).
//
// Flush never changes what Finish returns: in non-eager mode it is a pure
// checkpoint, in eager mode it only closes the current window early — a
// boundary the reference can replicate.
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

	// Provisional runs the online candidate engine during Append (non-eager
	// mode only), emitting EventCandidate/EventRetract through OnEvent.
	Provisional bool

	// OnEvent, when non-nil, receives streaming events synchronously from
	// Append/Flush/Finish.
	OnEvent func(Event)

	// Logf, when non-nil, receives the same progress lines the batch path
	// logs (e.g. the chunked-fallback notice).
	Logf func(format string, args ...any)

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
	// and stream.append_lag_us (per-batch processing latency histogram).
	// Per-graph spans still flow through HB.Obs / Detect.Obs.
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
	// EventWindow: an eager window was closed and analyzed.
	EventWindow
	// EventFlush: a non-eager Flush checkpoint.
	EventFlush
)

func (k EventKind) String() string {
	switch k {
	case EventCandidate:
		return "candidate"
	case EventRetract:
		return "retract"
	case EventWindow:
		return "window"
	default:
		return "flush"
	}
}

// Event is one streaming notification.
type Event struct {
	Kind EventKind
	// Records is how many records had been appended when the event fired.
	Records int
	// Pair is the candidate (EventCandidate/EventRetract). The analyzer
	// retains it for deduplication; callers must not mutate it.
	Pair *detect.Pair
	// WindowStart/WindowEnd delimit the closed window (EventWindow).
	WindowStart, WindowEnd int
	// Added is how many new callstack pairs the window contributed
	// (EventWindow).
	Added int
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
	tr   *trace.Trace // non-eager: the accumulating trace; eager: metadata only

	prov *provisional
	win  *windowed

	count    int // records appended or ingested
	ingested int // records the provisional engine has processed
	peakLive int64
	done     *Result
}

// New returns an analyzer. Trace metadata (program name, queue consumer
// counts) arrives via SetMeta once the caller has decoded the header.
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

// SetMeta supplies the trace metadata Finish needs: the program name and the
// queue consumer-count map (Rule-Eserial's single-consumer test). Call it as
// soon as the header is decoded; the map may keep growing in place.
func (a *Analyzer) SetMeta(program string, queueConsumers map[string]int) {
	a.tr.Program = program
	a.tr.QueueConsumers = queueConsumers
}

// Records returns how many records have been appended.
func (a *Analyzer) Records() int { return a.count }

// Trace returns the analyzer's accumulated trace. Only non-eager mode
// retains records (eager mode holds metadata alone); callers must treat the
// trace as read-only.
func (a *Analyzer) Trace() *trace.Trace { return a.tr }

// SetSpans points the heavy phases' instrumentation at sp: the hb.build and
// detect spans opened at Finish nest under it. Ingest-then-finish callers
// (dcatch-serve) open the analysis span only when the finish actually runs —
// after queue admission — not at construction. Eager mode reads HB.Obs
// while windows close, so there it must be set before the first Append.
func (a *Analyzer) SetSpans(sp *obs.Span) {
	a.opts.HB.Obs = sp
	a.opts.Detect.Obs = sp
	if a.win != nil {
		a.win.eng = a.win.eng.Under(sp)
	}
}

// Append feeds one record into the pipeline.
func (a *Analyzer) Append(r trace.Rec) {
	if a.done != nil {
		return
	}
	if a.win != nil {
		a.win.append(r)
	} else {
		a.tr.Recs = append(a.tr.Recs, r)
		if a.prov != nil {
			a.prov.add(a.count, &a.tr.Recs[a.count])
			a.ingested++
		}
	}
	a.count++
	a.noteLive()
}

// Ingest feeds one record through the online provisional engine without
// buffering it — for ingest loops whose decoder already retains the records
// (serve uploads, dcatch-trace -follow), where Append would hold a second
// copy of the trace. The caller must hand the complete decoded trace to
// AppendTrace before Finish; records already ingested are not re-processed.
// Ignored in eager mode (which must buffer its own window) and after Finish.
// Do not mix Ingest and Append on one analyzer.
func (a *Analyzer) Ingest(r *trace.Rec) {
	if a.done != nil || a.win != nil {
		return
	}
	if a.prov != nil {
		a.prov.add(a.count, r)
		a.ingested++
	}
	a.count++
	a.noteLive()
}

// IngestBatch feeds a run of records through Ingest, recording the batch's
// processing latency like AppendBatch does.
func (a *Analyzer) IngestBatch(rs []trace.Rec) {
	if len(rs) == 0 {
		return
	}
	t0 := time.Now()
	for i := range rs {
		a.Ingest(&rs[i])
	}
	a.opts.Obs.Observe("stream.append_lag_us", time.Since(t0).Microseconds())
	a.opts.Obs.CountMax("stream.frontier_peak_bytes", a.FrontierBytes())
}

// AppendBatch feeds a run of records and records the batch's processing
// latency into the stream.append_lag_us histogram — how far the analyzer
// falls behind the wire per delivery.
func (a *Analyzer) AppendBatch(rs []trace.Rec) {
	if len(rs) == 0 {
		return
	}
	t0 := time.Now()
	for i := range rs {
		a.Append(rs[i])
	}
	a.opts.Obs.Observe("stream.append_lag_us", time.Since(t0).Microseconds())
	a.opts.Obs.CountMax("stream.frontier_peak_bytes", a.FrontierBytes())
}

// AppendTrace feeds a whole decoded trace. In non-eager mode with no records
// buffered yet the record slice is adopted without copying — the batch
// entry-point case, and how an Ingest loop hands over the decoder's trace
// (only records past the ingested prefix go through the provisional engine).
func (a *Analyzer) AppendTrace(tr *trace.Trace) {
	a.SetMeta(tr.Program, tr.QueueConsumers)
	if a.win == nil && len(a.tr.Recs) == 0 && a.count <= len(tr.Recs) {
		a.tr.Recs = tr.Recs
		a.count = len(tr.Recs)
		if a.prov != nil {
			for i := a.ingested; i < len(a.tr.Recs); i++ {
				a.prov.add(i, &a.tr.Recs[i])
			}
			a.ingested = len(a.tr.Recs)
		}
		a.noteLive()
		return
	}
	a.AppendBatch(tr.Recs)
}

// Flush checkpoints the stream at the current record. In eager mode it
// closes the open window early (a chunk boundary the reference can
// replicate via Windows()); in non-eager mode it only emits EventFlush —
// Finish's output never depends on flush placement.
func (a *Analyzer) Flush() {
	if a.done != nil {
		return
	}
	if a.win != nil {
		a.win.flush()
		return
	}
	a.emit(Event{Kind: EventFlush, Records: a.count})
}

// Windows returns the closed eager windows as [start, end) record ranges
// (nil in non-eager mode). After Finish it includes the tail window.
func (a *Analyzer) Windows() [][2]int {
	if a.win == nil {
		return nil
	}
	return a.win.closed
}

// FrontierBytes returns the online sweep's current clock footprint — the
// stream.frontier_bytes gauge. Zero without the provisional engine.
func (a *Analyzer) FrontierBytes() int64 {
	if a.prov == nil {
		return 0
	}
	return a.prov.frontierBytes()
}

// LiveBytes returns the analyzer's current record-buffer footprint plus the
// online sweep frontier: the part of the live set that scales with the
// stream (per-window graphs are accounted at their peak, see PeakLiveBytes).
func (a *Analyzer) LiveBytes() int64 {
	held := int64(len(a.tr.Recs))
	if a.win != nil {
		held = int64(len(a.win.buf))
	}
	return held*recSize + a.FrontierBytes()
}

// PeakLiveBytes returns the high-water mark of LiveBytes plus, in eager
// mode, the window graph alive while each window was analyzed. This is the
// footprint the eager mode bounds; the batch path's equivalent is the whole
// decoded trace plus the full closure.
func (a *Analyzer) PeakLiveBytes() int64 { return a.peakLive }

func (a *Analyzer) noteLive() {
	if lv := a.LiveBytes(); lv > a.peakLive {
		a.peakLive = lv
	}
}

func (a *Analyzer) notePeak(extra int64) {
	if lv := a.LiveBytes() + extra; lv > a.peakLive {
		a.peakLive = lv
	}
}

func (a *Analyzer) emit(ev Event) {
	if a.opts.OnEvent != nil {
		a.opts.OnEvent(ev)
	}
}

func (a *Analyzer) logf(format string, args ...any) {
	if a.opts.Logf != nil {
		a.opts.Logf(format, args...)
	}
}

// Finish completes the analysis and returns the final result. Non-eager:
// the authoritative batch engine runs over the accumulated trace —
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
		a.logf("trace analysis: budget exceeded, falling back to %d-record windows", a.opts.ChunkSize)
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
