package core

import (
	"errors"
	"fmt"
	"time"

	"dcatch/internal/detect"
	"dcatch/internal/obs"
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
// detection tuning, the chunked-analysis fallback and its scan cache. The
// analysis is Detect's TA stage itself (analyzeTrace), so results are
// byte-identical to what Detect computes on the same trace.
func AnalyzeTrace(tr *trace.Trace, opts Options) (*Result, error) {
	if tr == nil {
		return nil, fmt.Errorf("core: AnalyzeTrace: nil trace")
	}
	j := &TraceJob{opts: opts, an: newAnalyzer(opts, false, nil), sealed: true}
	j.an.AppendTrace(tr)
	return j.Finish()
}

// TraceJob is AnalyzeTrace over a trace that is still arriving: the bytes
// of a binary trace are fed in whatever segments the source delivers (an
// upload body, a growing file), every record a segment completes runs
// through the streaming analyzer's online provisional pass, and Finish
// produces the Result AnalyzeTrace computes on the decoded trace — the same
// analyzer, built from the same Options by the same function, finished by
// the same stage, so the two cannot drift. Not safe for concurrent use.
type TraceJob struct {
	opts   Options
	an     *stream.Analyzer
	dec    *trace.StreamDecoder // nil in AnalyzeTrace's job, whose trace arrives decoded
	sealed bool                 // the analyzer holds the whole trace; Feed is over
	res    *Result              // Finish's outcome, returned again by later calls
}

// NewTraceJob returns a job awaiting the first bytes of a binary trace.
// onEvent, when non-nil, receives the provisional candidates and, during
// Finish, their retractions.
func NewTraceJob(opts Options, onEvent func(stream.Event)) *TraceJob {
	return &TraceJob{opts: opts, an: newAnalyzer(opts, true, onEvent), dec: trace.NewStreamDecoder()}
}

// newAnalyzer is the one place a trace analysis's stream.Options are
// derived from core.Options.
func newAnalyzer(opts Options, provisional bool, onEvent func(stream.Event)) *stream.Analyzer {
	return stream.New(stream.Options{
		HB: opts.HB, Detect: opts.Detect, ChunkSize: opts.ChunkSize,
		Provisional: provisional, OnEvent: onEvent,
		Obs: opts.Obs, Cache: opts.ScanCache,
	})
}

// Feed decodes the next segment of the trace and runs the records it
// completes through the online pass, returning how many there were. The
// decoder keeps the records and the analyzer adopts them, with the header's
// metadata, at Seal, so the trace is held once. A non-nil error means the
// bytes are not a trace, which is sticky, or that the job is already sealed.
func (j *TraceJob) Feed(seg []byte) (int, error) {
	if j.sealed {
		return 0, errors.New("core: TraceJob: Feed after Seal")
	}
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
	if !j.sealed {
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
// exceeds the budget and ChunkSize is set — the windowed replay. The
// analysis runs, and records its metrics, once: later calls return the same
// Result.
func (j *TraceJob) Finish() (*Result, error) {
	if j.res != nil {
		return j.res, nil
	}
	tr, err := j.Seal()
	if err != nil {
		return nil, err
	}
	rec := j.opts.Obs
	rec.Logf("analyze trace %s: %d records", tr.Program, len(tr.Recs))
	res := newTraceResult(tr)
	res.seed = j.opts.Seed
	res.analyzeTrace(j.an, rec)
	if !res.OOM {
		res.countStage(rec, "final", res.Final)
	}
	j.res = res
	return res, nil
}

// analyzeTrace is the pipeline's one trace-analysis stage — the "TA" column
// of Table 5 — behind Detect and every trace job: it finishes an, which
// holds the whole trace, under a core.trace_analysis span and fills the TA
// report, Graph, Chunked/OOM and the analysis stats from the outcome.
func (res *Result) analyzeTrace(an *stream.Analyzer, rec *obs.Recorder) {
	sp := rec.Span("core.trace_analysis")
	t0 := time.Now()
	an.SetSpans(sp)
	sr := an.Finish()
	res.fillTA(sr.Report, sr.HBMemBytes, sr.Backend, sr.Chunked)
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

// TraceResult is the Result of a trace-analysis-only job — no workload and
// no IR, so TA, SP and Final all hold rep — filled from what the analysis
// produced: the merged or full-graph report (nil: the analysis ran out of
// memory), the peak reachability footprint and the resolved backend. The
// cluster coordinator builds its Result here, with the same fill the
// trace-analysis stage applies, so their stats cannot drift apart.
func TraceResult(tr *trace.Trace, rep *detect.Report, peakBytes int64, backend string, chunked bool) *Result {
	res := newTraceResult(tr)
	res.fillTA(rep, peakBytes, backend, chunked)
	return res
}

// newTraceResult returns a Result carrying tr and its size stats.
func newTraceResult(tr *trace.Trace) *Result {
	res := &Result{Trace: tr}
	res.Stats.TraceRecords = len(tr.Recs)
	res.Stats.TraceBytes = tr.EncodedSize()
	return res
}

// fillTA records a trace-analysis outcome as a trace-analysis-only result:
// TA, SP and Final all hold rep (Detect overwrites SP and Final with its
// later stages), and a nil rep marks the analysis out of memory.
func (res *Result) fillTA(rep *detect.Report, peakBytes int64, backend string, chunked bool) {
	res.Chunked, res.OOM = chunked, rep == nil
	if rep == nil {
		return
	}
	res.TA, res.SP, res.Final = rep, rep, rep
	res.Stats.HBVertices = len(res.Trace.Recs)
	res.Stats.HBMemBytes = peakBytes
	res.Stats.ReachBackend = backend
	res.Stats.TAStatic = rep.StaticCount()
	res.Stats.TACallstack = rep.CallstackCount()
	res.Stats.SPStatic, res.Stats.SPCallstack = res.Stats.TAStatic, res.Stats.TACallstack
	res.Stats.LPStatic, res.Stats.LPCallstack = res.Stats.TAStatic, res.Stats.TACallstack
}
