package core

import (
	"errors"
	"fmt"
	"time"

	"dcatch/internal/cluster"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/stream"
	"dcatch/internal/trace"
)

// AnalyzeTrace runs trace analysis alone — HB-graph construction plus
// candidate detection, the paper's "TA" column of Table 5 — as a local
// TraceJob over an already-decoded trace. There is no workload and no IR,
// so static pruning, the focused loop-sync rerun and Rule-Mpull are skipped
// and TA, SP and Final all hold the same report. Every Options field that
// doesn't need the program is honored, and the analysis is Detect's TA stage
// itself (analyzeTrace), so results are byte-identical to Detect's.
func AnalyzeTrace(tr *trace.Trace, opts Options) (*Result, error) {
	if tr == nil {
		return nil, fmt.Errorf("core: AnalyzeTrace: nil trace")
	}
	j := &TraceJob{opts: opts, an: newAnalyzer(opts, nil), tr: tr}
	j.an.AppendTrace(tr)
	return j.Finish()
}

// TraceJob is the one way a command or the service analyzes a trace, fed
// the bytes in whatever segments the source delivers (an upload body, a
// growing file). A local job runs the streaming analyzer AnalyzeTrace runs,
// with the online provisional pass when given an onEvent. A coordinated job
// hands each ChunkSize window to its peers the moment it fills and folds
// their scans at Finish: it always windows, emits no provisional events, and
// reports the single-node chunked run's bytes. Not safe for concurrent use.
type TraceJob struct {
	opts   Options
	an     *stream.Analyzer     // nil in a coordinated job
	coord  *cluster.Coordinator // nil in a local job
	dec    *trace.StreamDecoder // nil in AnalyzeTrace's job, whose trace arrives decoded
	tr     *trace.Trace         // the whole trace, once sealed
	res    *Result              // Finish's outcome, returned again by later calls
	closed bool
}

// NewTraceJob returns a job awaiting the first bytes of a binary trace,
// coordinated across peers (dcatch-serve -worker base URLs; ChunkSize 0
// then means cluster.DefaultChunkSize) when there are any. onEvent, when
// non-nil, receives a local job's provisional candidates and, during Finish,
// their retractions. The error reports options the peers cannot be sent. A
// job that is not finished must be closed.
func NewTraceJob(opts Options, peers []string, onEvent func(stream.Event)) (*TraceJob, error) {
	j := &TraceJob{opts: opts, dec: trace.NewStreamDecoder()}
	if len(peers) == 0 {
		j.an = newAnalyzer(opts, onEvent)
		return j, nil
	}
	if j.opts.ChunkSize <= 0 {
		j.opts.ChunkSize = cluster.DefaultChunkSize
	}
	coord, err := cluster.NewCoordinator(cluster.Config{
		Peers: peers, ChunkSize: j.opts.ChunkSize,
		HB: opts.HB, Detect: opts.Detect, Obs: opts.Obs, Cache: opts.ScanCache,
	})
	if err != nil {
		return nil, err
	}
	j.coord = coord
	return j, nil
}

// newAnalyzer is the one place a trace analysis's stream.Options are
// derived from core.Options; the provisional pass runs only for a consumer
// of its events.
func newAnalyzer(opts Options, onEvent func(stream.Event)) *stream.Analyzer {
	return stream.New(stream.Options{
		HB: opts.HB, Detect: opts.Detect, ChunkSize: opts.ChunkSize,
		Provisional: onEvent != nil, OnEvent: onEvent,
		Obs: opts.Obs, Cache: opts.ScanCache,
	})
}

// Feed decodes the next segment and hands the records it completes — how
// many it returns — to the online pass, or as filled windows to the peers.
// The analyzer adopts the decoder's records at Seal: the trace is held once.
// An error means the bytes are not a trace (sticky) or the job is sealed or
// closed.
func (j *TraceJob) Feed(seg []byte) (int, error) {
	if j.tr != nil || j.closed {
		return 0, errors.New("core: TraceJob: Feed after Seal or Close")
	}
	n, err := j.dec.Feed(seg)
	switch {
	case err != nil:
		return 0, err
	case n == 0:
	case j.coord != nil:
		j.coord.Notify(j.dec.Trace())
	default:
		j.an.IngestBatch(j.dec.Trace().Recs[j.an.Records():])
	}
	return n, nil
}

// Trace returns the trace decoded so far; treat it as read-only.
func (j *TraceJob) Trace() *trace.Trace { return j.dec.Trace() }

// Expected returns the record count the trace header declares; ok is false
// until the header has been decoded.
func (j *TraceJob) Expected() (n uint64, ok bool) { return j.dec.Expected() }

// Done reports whether every declared record has been decoded.
func (j *TraceJob) Done() bool { return j.dec.Done() }

// FrontierBytes returns the online pass's current clock footprint: zero in a
// coordinated job, which has no online pass.
func (j *TraceJob) FrontierBytes() int64 {
	if j.an == nil {
		return 0
	}
	return j.an.FrontierBytes()
}

// Seal ends ingest: it fails if the stream stopped mid-header or short of
// its declared record count, and otherwise returns the complete trace.
// Callers that queue or announce the job between ingest and analysis seal
// it first; Finish seals implicitly.
func (j *TraceJob) Seal() (*trace.Trace, error) {
	if j.tr == nil {
		tr, err := j.dec.Finish()
		if err != nil {
			return nil, err
		}
		if j.an != nil {
			j.an.AppendTrace(tr) // adopt the decoder's records and metadata, no second copy
		}
		j.tr = tr
	}
	return j.tr, nil
}

// WindowSize returns the window length, in records, Finish analyzes the
// sealed trace at — ChunkSize for a coordinated job, and for a local one
// whose full build exceeds the budget — or 0 for a full build. Jobs with
// equal options and WindowSize report the same bytes, local or coordinated.
func (j *TraceJob) WindowSize() int {
	if j.coord != nil || (j.opts.ChunkSize > 0 && hb.FullBuildExceedsBudget(j.tr, j.opts.HB)) {
		return j.opts.ChunkSize
	}
	return 0
}

// Finish completes the analysis — the full build, the windowed replay when
// the closure exceeds the budget and ChunkSize is set, or the fold of the
// peers' window scans — once: later calls return the same Result.
func (j *TraceJob) Finish() (*Result, error) {
	if j.res != nil {
		return j.res, nil
	}
	if j.closed {
		return nil, errors.New("core: TraceJob: Finish after Close")
	}
	tr, err := j.Seal()
	if err != nil {
		return nil, err
	}
	rec := j.opts.Obs
	rec.Logf("analyze trace %s: %d records", tr.Program, len(tr.Recs))
	res := &Result{Trace: tr, seed: j.opts.Seed}
	res.Stats.TraceRecords, res.Stats.TraceBytes = len(tr.Recs), tr.EncodedSize()
	if j.coord != nil {
		res.analyzeTrace(rec, j.coordinate)
	} else {
		res.analyzeTrace(rec, streamed(j.an))
	}
	if !res.OOM {
		res.countStage(rec, "final", res.Final)
	}
	j.res = res
	return res, nil
}

// coordinate folds the peers' window scans into a windowed stream.Result.
func (j *TraceJob) coordinate(*obs.Span) *stream.Result {
	cres := j.coord.Finish(j.tr)
	return &stream.Result{Report: cres.Report, OOM: cres.OOM, Err: cres.Err,
		HBMemBytes: cres.PeakMemBytes, Backend: cres.Backend, Chunked: true}
}

// Close releases a job that will not be finished (an upload canceled while
// queued): a coordinated job's in-flight window scans stop and its senders
// exit before Close returns. Close is idempotent, and a no-op after Finish.
func (j *TraceJob) Close() {
	j.closed = true
	if j.coord != nil {
		j.coord.Close()
	}
}

// analyzeTrace is the pipeline's one trace-analysis stage — the "TA" column
// of Table 5 — behind Detect and every trace job: it runs finish, which
// analyzes the whole trace, under a core.trace_analysis span and fills the
// TA report, Graph, Chunked/OOM and the analysis stats from the outcome.
func (res *Result) analyzeTrace(rec *obs.Recorder, finish func(sp *obs.Span) *stream.Result) {
	sp := rec.Span("core.trace_analysis")
	t0 := time.Now()
	sr := finish(sp)
	res.fillTA(sr)
	res.Stats.AnalysisTime = time.Since(t0)
	if res.OOM {
		sp.Attr("oom", true)
		sp.End()
		if sr.Chunked {
			rec.Logf("chunked analysis: OUT OF MEMORY (%v)", sr.Err)
		} else {
			rec.Logf("trace analysis: OUT OF MEMORY (%v)", sr.Err)
		}
		return
	}
	if sr.Chunked {
		sp.Attr("chunked", true)
	} else {
		res.Stats.HBEdges = sr.HBEdges
		res.Graph = sr.Graph
	}
	sp.End()
	res.countStage(rec, "ta", res.TA)
	rec.Logf("trace analysis: %d vertices, %d edges, %d/%d candidates in %v",
		res.Stats.HBVertices, res.Stats.HBEdges, res.Stats.TAStatic, res.Stats.TACallstack, res.Stats.AnalysisTime)
}

// streamed finishes an, which holds the whole trace, under the stage's span.
func streamed(an *stream.Analyzer) func(*obs.Span) *stream.Result {
	return func(sp *obs.Span) *stream.Result {
		an.SetSpans(sp)
		return an.Finish()
	}
}

// fillTA records a trace-analysis outcome as a trace-analysis-only result:
// TA, SP and Final all hold its report (Detect overwrites SP and Final with
// its later stages).
func (res *Result) fillTA(sr *stream.Result) {
	res.Chunked, res.OOM = sr.Chunked, sr.OOM
	if sr.OOM {
		return
	}
	rep := sr.Report
	res.TA, res.SP, res.Final = rep, rep, rep
	res.Stats.HBVertices = len(res.Trace.Recs)
	res.Stats.HBMemBytes = sr.HBMemBytes
	res.Stats.ReachBackend = sr.Backend
	res.Stats.TAStatic = rep.StaticCount()
	res.Stats.TACallstack = rep.CallstackCount()
	res.Stats.SPStatic, res.Stats.SPCallstack = res.Stats.TAStatic, res.Stats.TACallstack
	res.Stats.LPStatic, res.Stats.LPCallstack = res.Stats.TAStatic, res.Stats.TACallstack
}
