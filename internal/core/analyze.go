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
// dcatch-serve's uploaded-trace jobs and dcatch-trace -analyze — where the
// run that produced the trace is not reproducible locally. Options is
// honored for everything that doesn't need the program: HB rule ablation,
// the reachability backend and memory budget, detection tuning, parallelism
// and the chunked-analysis fallback; results are byte-identical to the TA
// stage Detect would compute on the same trace.
func AnalyzeTrace(tr *trace.Trace, opts Options) (*Result, error) {
	if tr == nil {
		return nil, fmt.Errorf("core: AnalyzeTrace: nil trace")
	}
	// The whole stage runs on the streaming analyzer's batch mode: the full
	// build, and — when the closure exceeds the budget — the windowed replay.
	an := stream.New(stream.Options{
		HB: opts.HB, Detect: opts.Detect, ChunkSize: opts.ChunkSize,
		Logf: opts.Obs.Logf, Cache: opts.ScanCache,
	})
	an.AppendTrace(tr)
	return AnalyzeStreamed(an, opts)
}

// AnalyzeStreamed completes a trace analysis whose records were already fed
// into a streaming analyzer — dcatch-serve ingests uploads record by record
// as the body arrives, then hands the analyzer here from the job's run
// closure. The analyzer must be non-eager and must already hold the complete
// trace (an Ingest loop finishes with AppendTrace); the Result is
// byte-identical to AnalyzeTrace over the same records, because AnalyzeTrace
// is this function behind a one-shot ingest.
func AnalyzeStreamed(an *stream.Analyzer, opts Options) (*Result, error) {
	tr := an.Trace()
	if len(tr.Recs) != an.Records() {
		return nil, fmt.Errorf("core: AnalyzeStreamed: analyzer holds %d of %d records (eager mode, or Ingest without AppendTrace)",
			len(tr.Recs), an.Records())
	}
	rec := opts.Obs
	rec.Logf("analyze trace %s: %d records", tr.Program, len(tr.Recs))

	sp := rec.Span("core.trace_analysis")
	t0 := time.Now()
	an.SetSpans(sp)
	sr := an.Finish()
	elapsed := time.Since(t0)
	res := TraceResult(tr, sr.Report, sr.HBMemBytes, sr.Backend, sr.Chunked)
	res.seed = opts.Seed
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
// topology that analyzes a bare trace (AnalyzeStreamed, the cluster
// coordinator) builds its Result here, so their stats cannot drift apart.
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
