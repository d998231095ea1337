package core

import (
	"fmt"
	"time"

	"dcatch/internal/detect"
	"dcatch/internal/stream"
	"dcatch/internal/trace"
)

// AnalyzeTrace runs trace analysis alone — HB-graph construction plus
// candidate detection — on an already-collected trace: the paper's "TA"
// column of Table 5. There is no workload and no IR here, so the
// IR-dependent stages (static pruning, the focused loop-sync rerun and
// Rule-Mpull) are skipped and TA, SP and Final all hold the same report.
//
// This is the entry point for traces that arrive from outside the process —
// dcatch-trace -analyze, and through TraceJob dcatch-serve's uploads and
// dcatch-trace -follow — where the run that produced the trace is not
// reproducible locally. Options is honored for everything that doesn't need
// the program: HB rule ablation, the reachability backend and memory budget,
// detection tuning, the chunked-analysis fallback and its scan cache;
// results are byte-identical to the TA stage Detect would compute on the
// same trace.
func AnalyzeTrace(tr *trace.Trace, opts Options) (*Result, error) {
	if tr == nil {
		return nil, fmt.Errorf("core: AnalyzeTrace: nil trace")
	}
	j := newTraceJob(opts, false, nil)
	j.an.AppendTrace(tr)
	return j.Finish()
}

// TraceJob is AnalyzeTrace over a trace that is still arriving: the bytes
// of a binary trace are fed in whatever segments the source delivers (an
// upload body, a growing file), every record a segment completes runs
// through the streaming analyzer's online provisional pass, and Finish
// produces the Result AnalyzeTrace computes on the decoded trace — the same
// analyzer, built from the same Options by the same function, so the two
// cannot drift. Not safe for concurrent use.
type TraceJob struct {
	opts   Options
	an     *stream.Analyzer
	dec    *trace.StreamDecoder // nil in AnalyzeTrace's job, whose trace arrives decoded
	sealed bool                 // the analyzer has adopted the decoder's trace
}

// NewTraceJob returns a job awaiting the first bytes of a binary trace.
// onEvent, when non-nil, receives the provisional candidates and, during
// Finish, their retractions.
func NewTraceJob(opts Options, onEvent func(stream.Event)) *TraceJob {
	j := newTraceJob(opts, true, onEvent)
	j.dec = trace.NewStreamDecoder()
	return j
}

// newTraceJob is the one place a trace job's stream.Options are derived
// from core.Options.
func newTraceJob(opts Options, provisional bool, onEvent func(stream.Event)) *TraceJob {
	return &TraceJob{opts: opts, an: stream.New(stream.Options{
		HB: opts.HB, Detect: opts.Detect, ChunkSize: opts.ChunkSize,
		Provisional: provisional, OnEvent: onEvent,
		Obs: opts.Obs, Logf: opts.Obs.Logf, Cache: opts.ScanCache,
	})}
}

// Feed decodes the next segment of the trace and runs the records it
// completes through the online pass, returning how many there were. The
// decoder keeps the records and the analyzer adopts them, with the header's
// metadata, at Seal, so the trace is held once. A non-nil error means the
// bytes are not a trace; it is sticky.
func (j *TraceJob) Feed(seg []byte) (int, error) {
	n, err := j.dec.Feed(seg)
	if err != nil {
		return 0, err
	}
	if n > 0 {
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

// FrontierBytes returns the online pass's current clock footprint.
func (j *TraceJob) FrontierBytes() int64 { return j.an.FrontierBytes() }

// Seal ends ingest: it fails if the stream stopped mid-header or short of
// its declared record count, and otherwise returns the complete trace.
// Callers that queue or announce the job between ingest and analysis seal
// it first; Finish seals implicitly.
func (j *TraceJob) Seal() (*trace.Trace, error) {
	if j.dec != nil && !j.sealed {
		tr, err := j.dec.Finish()
		if err != nil {
			return nil, err
		}
		j.an.AppendTrace(tr) // adopt the decoder's records and metadata, no second copy
		j.sealed = true
	}
	return j.an.Trace(), nil
}

// Finish completes the analysis: the full build, or — when the closure
// exceeds the budget and ChunkSize is set — the windowed replay.
func (j *TraceJob) Finish() (*Result, error) {
	tr, err := j.Seal()
	if err != nil {
		return nil, err
	}
	rec := j.opts.Obs
	rec.Logf("analyze trace %s: %d records", tr.Program, len(tr.Recs))

	sp := rec.Span("core.trace_analysis")
	t0 := time.Now()
	j.an.SetSpans(sp)
	sr := j.an.Finish()
	elapsed := time.Since(t0)
	res := TraceResult(tr, sr.Report, sr.HBMemBytes, sr.Backend, sr.Chunked)
	res.seed = j.opts.Seed
	res.Stats.AnalysisTime = elapsed
	if res.OOM {
		sp.Attr("oom", true)
		sp.End()
		if sr.Chunked {
			rec.Logf("chunked analysis: OUT OF MEMORY (%v)", sr.Err)
		} else {
			rec.Logf("trace analysis: OUT OF MEMORY (%v)", sr.Err)
		}
		return res, nil
	}
	if sr.Chunked {
		sp.Attr("chunked", true)
	} else {
		res.Stats.HBEdges = sr.HBEdges
		res.Graph = sr.Graph
	}
	sp.End()
	res.countStage(rec, "ta", res.TA)
	res.countStage(rec, "final", res.Final)
	rec.Logf("trace analysis: %d/%d candidates in %v",
		res.Stats.TAStatic, res.Stats.TACallstack, res.Stats.AnalysisTime)
	return res, nil
}

// TraceResult is the Result of a trace-analysis-only job — no workload and
// no IR, so TA, SP and Final all hold rep — filled from what the analysis
// produced: the merged or full-graph report (nil: the analysis ran out of
// memory), the peak reachability footprint and the resolved backend. Every
// topology that analyzes a bare trace (TraceJob, the cluster coordinator)
// builds its Result here, so their stats cannot drift apart.
func TraceResult(tr *trace.Trace, rep *detect.Report, peakBytes int64, backend string, chunked bool) *Result {
	res := &Result{Trace: tr, Chunked: chunked, OOM: rep == nil}
	res.Stats.TraceRecords = len(tr.Recs)
	res.Stats.TraceBytes = tr.EncodedSize()
	if rep == nil {
		return res
	}
	res.TA, res.SP, res.Final = rep, rep, rep
	res.Stats.HBVertices = len(tr.Recs)
	res.Stats.HBMemBytes = peakBytes
	res.Stats.ReachBackend = backend
	res.Stats.TAStatic = rep.StaticCount()
	res.Stats.TACallstack = rep.CallstackCount()
	res.Stats.SPStatic, res.Stats.SPCallstack = res.Stats.TAStatic, res.Stats.TACallstack
	res.Stats.LPStatic, res.Stats.LPCallstack = res.Stats.TAStatic, res.Stats.TACallstack
	return res
}
