// Package core is the DCatch pipeline — the paper's end-to-end tool
// (§1.3): run the workload under the tracer, build the happens-before graph
// and enumerate concurrent conflicting accesses (trace analysis), estimate
// failure impact to prune false positives (static pruning), rerun with
// focused probes to resolve loop-based custom synchronization, and finally
// drive the triggering module to classify each surviving report as serial,
// benign, or harmful.
//
// Typical use:
//
//	res, err := core.Detect(workload, core.Options{Seed: 1})
//	vals := core.ValidateAll(res, core.TriggerOptions{})
package core

import (
	"fmt"
	"strings"
	"time"

	"dcatch/internal/analysis"
	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/rt"
	"dcatch/internal/scancache"
	"dcatch/internal/stream"
	"dcatch/internal/trace"
	"dcatch/internal/trigger"
)

// Options configures detection.
type Options struct {
	Seed     int64
	MaxSteps int

	// FullTrace disables selective memory tracing: every function's
	// accesses are recorded (the Table 8 configuration).
	FullTrace bool

	// HB carries rule-ablation switches and the analysis memory budget
	// (hb.Config.LoopReads is managed by the pipeline itself).
	HB hb.Config

	// SkipPrune disables static pruning; SkipLoopSync disables the
	// focused rerun and Rule-Mpull.
	SkipPrune    bool
	SkipLoopSync bool

	// ChunkSize, when positive, enables the chunked-analysis fallback
	// (paper §7.2): if the full reachability closure exceeds HB.MemBudget,
	// the trace is re-analyzed in overlapping windows of this many
	// records instead of reporting OOM. Cross-window candidates are
	// missed — the approach's documented trade-off.
	ChunkSize int

	// ScanCache, when non-nil, memoizes per-window scans on the chunked
	// fallback and streaming paths: windows whose record bytes and
	// wire-expressible options match a cached entry skip their build and
	// scan. Reports are byte-identical with or without it.
	ScanCache *scancache.Cache

	// Detect tunes candidate enumeration.
	Detect detect.Options

	// Analysis tunes failure-instruction identification (§4.1's
	// configurable failure list).
	Analysis analysis.Config

	// Obs, when non-nil, records stage spans, per-rule HB metrics and
	// progress logs for the whole pipeline. Instrumentation is nil-safe
	// and never changes any result: reports are byte-identical with
	// recording on or off (see TestObservabilityDeterminism).
	Obs *obs.Recorder
}

// Stats aggregates the measurements the paper reports in Tables 5–8.
type Stats struct {
	BaseSteps    int
	TraceRecords int
	TraceBytes   int

	// Candidate counts per pipeline stage (Table 5): trace analysis
	// alone, plus static pruning, plus loop-sync analysis.
	TAStatic, TACallstack int
	SPStatic, SPCallstack int
	LPStatic, LPCallstack int

	HBVertices, HBEdges int
	HBMemBytes          int64
	// ReachBackend names the reachability representation the HB closure
	// materialized ("dense" or "chain"), as resolved from Options.HB.
	ReachBackend string
	PullPairs    int

	BaseTime     time.Duration
	TracingTime  time.Duration
	AnalysisTime time.Duration // HB construction + detection
	PruningTime  time.Duration
	LoopSyncTime time.Duration
}

// Result is the full detection outcome.
type Result struct {
	Workload *rt.Workload
	Analysis *analysis.Analysis
	Run      *rt.Result
	Trace    *trace.Trace
	Graph    *hb.Graph

	// TA holds the raw trace-analysis candidates; SP after static
	// pruning; Final additionally after loop-synchronization analysis.
	TA    *detect.Report
	SP    *detect.Report
	Final *detect.Report

	// OOM is set when the HB analysis exceeded its memory budget (the
	// unselective-tracing failure mode of Table 8); only Stats about the
	// trace are valid then. With Options.ChunkSize set, the pipeline
	// falls back to chunked analysis instead and sets Chunked.
	OOM     bool
	Chunked bool

	Stats Stats

	seed int64
}

// Seed returns the seed the detection runs used; the triggering module
// reuses it so controlled replays follow the traced schedule.
func (r *Result) Seed() int64 { return r.seed }

// Detect runs the full DCatch pipeline on a workload.
func Detect(w *rt.Workload, opts Options) (*Result, error) {
	res := &Result{Workload: w, seed: opts.Seed}
	rec := opts.Obs
	rec.Logf("detect %s: seed %d", w.Name, opts.Seed)

	// Baseline (untraced) run: sanity and Table 6's "Base" column.
	sp := rec.Span("core.base_run")
	t0 := time.Now()
	base, err := rt.Run(w, rt.Options{Seed: opts.Seed, MaxSteps: opts.MaxSteps})
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("core: baseline run: %w", err)
	}
	res.Stats.BaseTime = time.Since(t0)
	res.Stats.BaseSteps = base.Steps
	sp.Attr("steps", base.Steps)
	sp.End()
	rec.Logf("base run: %d steps in %v", base.Steps, res.Stats.BaseTime)

	res.Analysis = analysis.NewWithConfig(w.Program, opts.Analysis)
	var scope map[string]bool
	if !opts.FullTrace {
		scope = res.Analysis.TraceScope()
	}

	// Traced run (DCatch monitors a correct execution, §1.3).
	sp = rec.Span("core.traced_run")
	sp.Attr("selective", !opts.FullTrace)
	t0 = time.Now()
	col := trace.NewCollector(w.Name)
	run, err := rt.Run(w, rt.Options{
		Seed: opts.Seed, MaxSteps: opts.MaxSteps,
		Collector: col, TraceMem: true, MemScope: scope,
	})
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("core: traced run: %w", err)
	}
	res.Stats.TracingTime = time.Since(t0)
	res.Run = run
	res.Trace = col.Trace()
	sp.Attr("records", len(res.Trace.Recs))
	sp.End()
	rec.Logf("traced run: %d records in %v", len(res.Trace.Recs), res.Stats.TracingTime)

	// Focused second run for loop-based synchronization (§3.2.1): same
	// seed, same schedule, plus LoopExit and writer-provenance records.
	loopReads := map[int32][]int32{}
	if !opts.SkipLoopSync {
		sp = rec.Span("core.loop_sync_probe")
		t0 = time.Now()
		cands := res.Analysis.LoopSyncCandidates()
		sp.Attr("candidate_loops", len(cands))
		if len(cands) > 0 {
			loops, reads := analysis.PullProbe(cands)
			col2 := trace.NewCollector(w.Name)
			if _, err := rt.Run(w, rt.Options{
				Seed: opts.Seed, MaxSteps: opts.MaxSteps,
				Collector: col2, TraceMem: true, MemScope: scope,
				PullLoops: loops, PullReads: reads,
			}); err != nil {
				sp.End()
				return nil, fmt.Errorf("core: focused run: %w", err)
			}
			res.Trace = col2.Trace()
			loopReads = cands
		}
		res.Stats.LoopSyncTime = time.Since(t0)
		sp.End()
		rec.Logf("loop-sync probe: %d candidate loops in %v", len(cands), res.Stats.LoopSyncTime)
	}

	res.Stats.TraceRecords = len(res.Trace.Recs)
	res.Stats.TraceBytes = res.Trace.EncodedSize()
	if rec != nil {
		for k, v := range res.Trace.Stats().Counters() {
			rec.Count(k, v)
		}
	}

	// Trace analysis without Rule-Mpull: the "TA" stage of Table 5.
	sp = rec.Span("core.trace_analysis")
	t0 = time.Now()
	cfg := opts.HB
	cfg.LoopReads = nil
	cfg.Obs = sp
	dopt := opts.Detect
	dopt.Obs = sp
	g0, err := hb.Build(res.Trace, cfg)
	switch {
	case err == nil:
		res.TA = detect.Find(g0, dopt)
		res.Stats.HBVertices = g0.N()
		res.Stats.HBEdges = g0.Edges()
		res.Stats.HBMemBytes = g0.MemBytes()
		res.Stats.ReachBackend = g0.Backend().String()
		res.Graph = g0
	case opts.ChunkSize <= 0:
		res.OOM = true
		res.Stats.AnalysisTime = time.Since(t0)
		sp.Attr("oom", true)
		sp.End()
		rec.Logf("trace analysis: OUT OF MEMORY (%v)", err)
		return res, nil
	default:
		// Chunked fallback (§7.2): analyze window by window through the
		// stream layer's replay of the one window engine, with the scan
		// cache consulted per window when configured.
		rec.Logf("trace analysis: budget exceeded, falling back to %d-record windows", opts.ChunkSize)
		wan := stream.New(stream.Options{
			HB: cfg, Detect: dopt,
			ChunkSize: opts.ChunkSize,
			Cache:     opts.ScanCache,
		})
		wan.AppendTrace(res.Trace)
		wres := wan.Finish()
		if wres.OOM {
			res.OOM = true
			res.Stats.AnalysisTime = time.Since(t0)
			sp.Attr("oom", true)
			sp.End()
			rec.Logf("chunked analysis: OUT OF MEMORY (%v)", wres.Err)
			return res, nil
		}
		res.Chunked = true
		res.TA = wres.Report
		res.Stats.HBVertices = len(res.Trace.Recs)
		res.Stats.HBMemBytes = wres.HBMemBytes
		res.Stats.ReachBackend = wres.Backend
		sp.Attr("chunked", true)
	}
	res.Stats.TAStatic = res.TA.StaticCount()
	res.Stats.TACallstack = res.TA.CallstackCount()
	res.Stats.AnalysisTime = time.Since(t0)
	sp.End()
	res.countStage(rec, "ta", res.TA)
	rec.Logf("trace analysis: %d vertices, %d edges, %d/%d candidates in %v",
		res.Stats.HBVertices, res.Stats.HBEdges, res.Stats.TAStatic, res.Stats.TACallstack, res.Stats.AnalysisTime)

	// Static pruning (§4).
	sp = rec.Span("core.static_pruning")
	t0 = time.Now()
	if opts.SkipPrune {
		res.SP = res.TA
	} else {
		res.SP, _ = res.Analysis.Prune(res.TA, res.Trace)
	}
	res.Stats.SPStatic = res.SP.StaticCount()
	res.Stats.SPCallstack = res.SP.CallstackCount()
	res.Stats.PruningTime = time.Since(t0)
	sp.Attr("pruned", res.TA.CallstackCount()-res.SP.CallstackCount())
	sp.End()
	res.countStage(rec, "sp", res.SP)
	rec.Logf("static pruning: %d/%d candidates in %v",
		res.Stats.SPStatic, res.Stats.SPCallstack, res.Stats.PruningTime)

	// Loop-synchronization stage: rebuild with Rule-Mpull and suppress
	// pull-sync pairs, then intersect with the pruned set. It needs the
	// full graph, so a chunked run's final report is the pruned one.
	res.Final = res.SP
	if !res.Chunked && !opts.SkipLoopSync && len(loopReads) > 0 {
		sp = rec.Span("core.loop_sync_analysis")
		cfg.LoopReads = loopReads
		cfg.Obs = sp
		g1, err := hb.Build(res.Trace, cfg)
		if err == nil {
			opt2 := dopt
			opt2.SuppressPull = true
			opt2.Obs = sp
			lp := detect.Find(g1, opt2)
			res.Graph = g1
			res.Stats.PullPairs = len(g1.PullPairs)
			res.Final = intersect(res.SP, lp)
			sp.Attr("pull_pairs", len(g1.PullPairs))
		}
		sp.End()
	}
	res.Stats.LPStatic = res.Final.StaticCount()
	res.Stats.LPCallstack = res.Final.CallstackCount()
	res.countStage(rec, "final", res.Final)
	rec.Logf("final report: %d/%d candidates (static/callstack pairs)",
		res.Stats.LPStatic, res.Stats.LPCallstack)
	return res, nil
}

// countStage emits a pruning-funnel counter pair (static and callstack
// granularity) for one pipeline stage.
func (r *Result) countStage(rec *obs.Recorder, stage string, rep *detect.Report) {
	if rec == nil || rep == nil {
		return
	}
	rec.Count("core.candidates."+stage+".static", int64(rep.StaticCount()))
	rec.Count("core.candidates."+stage+".callstack", int64(rep.CallstackCount()))
}

// intersect keeps the pairs of a that also appear (by callstack identity)
// in b. Identity is the two-sided CallstackKey, not a joined string: joining
// the stacks with a separator collided whenever a stack rendering itself
// contained the separator.
func intersect(a, b *detect.Report) *detect.Report {
	keys := map[detect.CallstackKey]bool{}
	for i := range b.Pairs {
		keys[b.Pairs[i].CallstackKey()] = true
	}
	out := &detect.Report{}
	for i := range a.Pairs {
		if keys[a.Pairs[i].CallstackKey()] {
			out.Pairs = append(out.Pairs, a.Pairs[i])
		}
	}
	return out
}

// TriggerOptions configures validation of a detection result.
type TriggerOptions struct {
	MaxSteps int
	// Naive disables placement analysis (§7.2's comparison baseline).
	Naive bool

	// Obs, when non-nil, records a validation span per report pair.
	Obs *obs.Recorder
}

// ValidateAll runs the triggering module on every final report pair.
func ValidateAll(res *Result, opts TriggerOptions) []trigger.Validation {
	if res.Final == nil {
		return nil
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 120_000
	}
	sp := opts.Obs.Span("core.trigger_validation")
	defer sp.End()
	var out []trigger.Validation
	for i := range res.Final.Pairs {
		vsp := sp.Child("trigger.validate")
		vsp.Attr("pair", i)
		v := trigger.Validate(res.Workload, res.Final.Pairs[i], res.Trace, res.Graph, trigger.Options{
			Seed:     seedOf(res),
			MaxSteps: maxSteps,
			Naive:    opts.Naive,
		})
		vsp.Attr("verdict", fmt.Sprint(v.Verdict))
		vsp.End()
		opts.Obs.Count("trigger.validations", 1)
		for _, at := range v.Attempts {
			opts.Obs.Count("trigger.steps", int64(at.Result.Steps))
			opts.Obs.Count("trigger.attempts."+attemptOutcome(at), 1)
		}
		opts.Obs.Logf("trigger pair %d: %s", i, v.Summary())
		out = append(out, v)
	}
	return out
}

func seedOf(res *Result) int64 { return res.seed }

// attemptOutcome names how a controlled run ended, for the
// trigger.attempts.* counters: it exhausted the step budget, a lone party
// was released on patience expiry (timeout) or because the cluster quiesced
// (forced), both parties were parked together (arrived), or neither point
// was reached (untriggered).
func attemptOutcome(at trigger.Attempt) string {
	switch {
	case at.Result.Hang && strings.HasPrefix(at.Result.HangInfo, "step budget"):
		return "budget"
	case at.TimedOut > 0:
		return "timeout"
	case at.Forced > 0:
		return "forced"
	case at.Arrived:
		return "arrived"
	default:
		return "untriggered"
	}
}

// Summary renders the pipeline outcome.
func (r *Result) Summary() string {
	var b strings.Builder
	name := "?"
	switch {
	case r.Workload != nil:
		name = r.Workload.Name
	case r.Trace != nil:
		// Trace-only analysis (AnalyzeTrace): the workload never ran here,
		// but the trace names its program.
		name = r.Trace.Program
	}
	fmt.Fprintf(&b, "workload %s: ", name)
	if r.OOM {
		fmt.Fprintf(&b, "trace analysis OUT OF MEMORY (%d records, %d bytes)",
			r.Stats.TraceRecords, r.Stats.TraceBytes)
		return b.String()
	}
	fmt.Fprintf(&b, "TA %d/%d, +SP %d/%d, +LP %d/%d (static/callstack pairs), %d trace records",
		r.Stats.TAStatic, r.Stats.TACallstack,
		r.Stats.SPStatic, r.Stats.SPCallstack,
		r.Stats.LPStatic, r.Stats.LPCallstack,
		r.Stats.TraceRecords)
	return b.String()
}

// DetectMulti runs the pipeline under several schedule seeds and unions the
// final reports (deduplicated by callstack pair). DCbugs manifest per
// schedule, so monitoring several correct runs widens coverage — the
// multi-workload counterpart of the paper's "monitoring correct execution
// of seven workloads".
func DetectMulti(w *rt.Workload, seeds []int64, opts Options) (*Result, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("core: DetectMulti needs at least one seed")
	}
	var first *Result
	seen := map[detect.CallstackKey]bool{}
	for _, seed := range seeds {
		o := opts
		o.Seed = seed
		res, err := Detect(w, o)
		if err != nil {
			return nil, fmt.Errorf("core: seed %d: %w", seed, err)
		}
		if res.OOM {
			return res, nil
		}
		if first == nil {
			first = res
			for i := range first.Final.Pairs {
				seen[first.Final.Pairs[i].CallstackKey()] = true
			}
			continue
		}
		for i := range res.Final.Pairs {
			p := res.Final.Pairs[i]
			key := p.CallstackKey()
			if !seen[key] {
				seen[key] = true
				first.Final.Pairs = append(first.Final.Pairs, p)
			}
		}
	}
	first.Stats.LPStatic = first.Final.StaticCount()
	first.Stats.LPCallstack = first.Final.CallstackCount()
	return first, nil
}
