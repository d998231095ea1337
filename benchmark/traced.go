package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"time"

	"dcatch/internal/analysis"
	"dcatch/internal/core"
	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/rt"
	"dcatch/internal/scancache"
	"dcatch/internal/stream"
	"dcatch/internal/subjects"
	"dcatch/internal/trace"
	"dcatch/internal/trigger"
)

// The traced run times the calls into each layer from this side of the call.
// A traced job makes the same calls core.AnalyzeTrace makes, one span each;
// probes time the operations a job does not isolate (per-window build and
// scan, codec and cache primitives, library-only modes).

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// replay is the stream layer's part of a windowed job: adopt the decoded
// trace and finish under the budget.
func replay(tr *trace.Trace, opts core.Options) (*stream.Result, error) {
	an := stream.New(stream.Options{HB: opts.HB, Detect: opts.Detect, ChunkSize: opts.ChunkSize, Cache: opts.ScanCache})
	an.AppendTrace(tr)
	sr := an.Finish()
	if sr.OOM {
		return nil, fmt.Errorf("stream replay out of memory: %w", sr.Err)
	}
	return sr, nil
}

// childMs sums the wall time of the direct children of the first hb.build
// span in the product's span tree, by name.
func childMs(spans []obs.SpanData, name string) float64 {
	for _, s := range spans {
		if s.Name != "hb.build" {
			if v := childMs(s.Children, name); v > 0 {
				return v
			}
			continue
		}
		var total float64
		for _, c := range s.Children {
			if c.Name == name {
				total += float64(c.WallNs) / 1e6
			}
		}
		return total
	}
	return 0
}

// tracedAnalysis is analyzeJob taken apart: the calls core.AnalyzeTrace makes
// on the job's goroutine, each under its own span. The full-graph topology
// calls hb.Build and detect.Find directly (what the stream layer's batch
// finish does); the windowed ones call the stream layer, whose window
// pipeline runs on its own goroutines and is costed per window by
// probeWindows instead.
func tracedAnalysis(t *tracer, j int, data []byte, opts core.Options, chunked bool, backend string) (out jobOut) {
	t0 := time.Now()
	js := beginJob(t, j)
	defer js.end()
	var tr *trace.Trace
	var err error
	js.time("trace.decode", func() { tr, err = trace.Decode(bytes.NewReader(data)) })
	if err != nil {
		return jobOut{err: err}
	}
	extra := metricSet{}
	var rep *detect.Report
	var gotBackend string
	var reach int64
	if chunked {
		var sr *stream.Result
		js.time("stream.replay", func() { sr, err = replay(tr, opts) })
		if err != nil {
			return jobOut{err: err}
		}
		if !sr.Chunked {
			return jobOut{err: errors.New("stream replay built the full graph, workload expects windows")}
		}
		rep, gotBackend, reach = sr.Report, sr.Backend, sr.HBMemBytes
	} else {
		// The three phases inside hb.Build are not separate calls, so they
		// are read from the spans the product already records there.
		rec := obs.New()
		sp := rec.Span("benchmark")
		hcfg := opts.HB
		hcfg.Obs = sp
		var g *hb.Graph
		js.time("hb.build", func() { g, err = hb.Build(tr, hcfg) })
		sp.End()
		if err != nil {
			return jobOut{err: err}
		}
		js.time("detect.find", func() { rep = detect.Find(g, opts.Detect) })
		gotBackend, reach = g.Backend().String(), g.MemBytes()
		spans := rec.Spans(0)
		extra["hb.rules_ms"] = childMs(spans, "hb.rules")
		extra["hb.closure_ms"] = childMs(spans, "hb.closure")
		extra["hb.eserial_ms"] = childMs(spans, "hb.eserial.round")
		extra["hb.eserial_rounds"] = float64(g.Rounds)
		extra["hb.edges"] = float64(g.Edges())
		extra["hb.chains"] = float64(g.Chains())
	}
	// core.AnalyzeTrace fills Stats.TraceBytes by encoding the whole trace.
	js.time("trace.encode", func() { tr.EncodedSize() })
	var report string
	js.time("detect.format", func() { report = rep.Format(nil) })
	extra["hb.mem_bytes"] = float64(reach)
	extra["detect.candidates"] = float64(rep.CallstackCount())
	extra["detect.report_bytes"] = float64(len(report))
	return jobOut{
		wall: time.Since(t0), report: report, candidates: rep.CallstackCount(),
		records: len(tr.Recs), reach: reach, extra: extra,
		err: checkTopology(chunked, gotBackend, chunked, backend),
	}
}

// probeSpan times f as a probe span and returns its duration in ms.
func probeSpan(t *tracer, name string, parent int, f func()) float64 {
	return t.time(name, probeJob, parent, f)
}

// probeCodec times the trace layer's codec over the workload's input.
func probeCodec(t *tracer, m metricSet, in traceInput) {
	const reps = 3
	var dec, enc, sdec []float64
	for i := 0; i < reps; i++ {
		dec = append(dec, probeSpan(t, "trace.decode", -1, func() { trace.Decode(bytes.NewReader(in.data)) }))
		enc = append(enc, probeSpan(t, "trace.encode", -1, func() { in.tr.Encode() }))
		sdec = append(sdec, probeSpan(t, "trace.stream_decode", -1, func() {
			d := trace.NewStreamDecoder()
			for rest := in.data; len(rest) > 0; {
				n := min(64<<10, len(rest))
				d.Feed(rest[:n])
				rest = rest[n:]
			}
		}))
	}
	m["trace.decode_ms"] = median(dec)
	m["trace.decode_mb_per_s"] = float64(len(in.data)) / 1e6 / (median(dec) / 1e3)
	m["trace.encode_ms"] = median(enc)
	m["trace.stream_decode_ms"] = median(sdec)
	m["trace.bytes_per_record"] = float64(len(in.data)) / float64(len(in.tr.Recs))
}

// probeBudgetCheck times the admission check that decides full graph or
// windows.
func probeBudgetCheck(t *tracer, m metricSet, tr *trace.Trace, hcfg hb.Config) {
	var walls []float64
	for i := 0; i < 3; i++ {
		walls = append(walls, probeSpan(t, "hb.budget_check", -1, func() { hb.FullBuildExceedsBudget(tr, hcfg) }))
	}
	m["hb.budget_check_ms"] = median(walls)
}

// probeObsOverhead compares whole jobs with the product's own recorder on
// and off, alternating.
func probeObsOverhead(m metricSet, in traceInput, opts core.Options) {
	var on, off []float64
	for i := 0; i < 2; i++ {
		off = append(off, ms(analyzeJob(in.data, opts, false, "").wall))
		with := opts
		with.Obs = obs.New()
		on = append(on, ms(analyzeJob(in.data, with, false, "").wall))
	}
	m["obs.overhead_share"] = median(on)/median(off) - 1
}

// probeWindows runs the windowed analysis one window at a time on this
// goroutine — cut, build, scan, DCWS round trip, merge — so each layer's
// per-window cost is a span of its own; the merged report must equal ref.
func probeWindows(t *tracer, m metricSet, tr *trace.Trace, opts core.Options, ref string, wantWindows int) error {
	root := t.start("probe.windows", probeJob, -1)
	defer t.end(root)
	hcfg := opts.HB
	hcfg.Parallelism = 1
	windows := hb.ChunkWindows(len(tr.Recs), opts.ChunkSize, 0)
	if wantWindows != 0 && len(windows) != wantWindows {
		return fmt.Errorf("trace cuts into %d windows, workload expects %d", len(windows), wantWindows)
	}
	merger := detect.NewChunkMerger(opts.Detect)
	var cut, build, buildMax, scan, enc, dec, merge float64
	var bytesOut int
	for _, wn := range windows {
		var sub *trace.Trace
		cut += probeSpan(t, "trace.window", root, func() {
			sub = tr.Window(wn[0], wn[1])
			sub.Recs = append([]trace.Rec(nil), sub.Recs...)
		})
		var g *hb.Graph
		var err error
		b := probeSpan(t, "hb.window_build", root, func() { g, err = hb.Build(sub, hcfg) })
		if err != nil {
			return fmt.Errorf("window [%d,%d): %w", wn[0], wn[1], err)
		}
		build += b
		buildMax = max(buildMax, b)
		var ws detect.WindowScan
		scan += probeSpan(t, "detect.window_scan", root, func() { ws = detect.ScanGraph(g, opts.Detect) })
		var payload []byte
		enc += probeSpan(t, "detect.dcws_encode", root, func() { payload = ws.Encode() })
		bytesOut += len(payload)
		dec += probeSpan(t, "detect.dcws_decode", root, func() { _, err = detect.DecodeWindowScan(payload) })
		if err != nil {
			return fmt.Errorf("window [%d,%d): DCWS round trip: %w", wn[0], wn[1], err)
		}
		merge += probeSpan(t, "detect.merge", root, func() { merger.Merge(ws, wn[0]) })
	}
	var rep *detect.Report
	m["detect.report_ms"] = probeSpan(t, "detect.report", root, func() { rep = merger.Report() })
	if rep.Format(nil) != ref {
		return errors.New("window-by-window analysis differs from the workload's report")
	}
	m["hb.windows"] = float64(len(windows))
	m["trace.window_ms"] = cut
	m["hb.window_build_ms"] = build
	m["hb.window_build_ms_max"] = buildMax
	m["detect.window_scan_ms"] = scan
	m["detect.dcws_encode_ms"] = enc
	m["detect.dcws_decode_ms"] = dec
	m["detect.dcws_bytes"] = float64(bytesOut)
	m["detect.merge_ms"] = merge
	return nil
}

// probeEager runs the stream layer's eager mode (windows analysed as they
// fill, records released behind them) over the same windows.
func probeEager(t *tracer, m metricSet, tr *trace.Trace, opts core.Options, ref string) error {
	var sr *stream.Result
	var an *stream.Analyzer
	m["stream.eager_ms"] = probeSpan(t, "stream.eager", -1, func() {
		an = stream.New(stream.Options{HB: opts.HB, Detect: opts.Detect, ChunkSize: opts.ChunkSize, Eager: true})
		an.AppendTrace(tr)
		sr = an.Finish()
	})
	if sr.OOM {
		return fmt.Errorf("eager stream out of memory: %w", sr.Err)
	}
	if sr.Report.Format(nil) != ref {
		return errors.New("eager stream report differs from the windowed report")
	}
	m["stream.eager_peak_live_bytes"] = float64(an.PeakLiveBytes())
	return nil
}

// probeWindowedQuality compares the windowed report's callstack pairs with
// the full graph's over the same trace: the share of the full report the
// windows found, and the share of the windowed report the full graph
// confirms.
func probeWindowedQuality(m metricSet, tr *trace.Trace, full, windowed core.Options) error {
	g, err := hb.Build(tr, full.HB)
	if err != nil {
		return fmt.Errorf("full graph for the windowed comparison: %w", err)
	}
	fullRep := detect.Find(g, full.Detect)
	inFull := make(map[detect.CallstackKey]bool, len(fullRep.Pairs))
	for i := range fullRep.Pairs {
		inFull[fullRep.Pairs[i].CallstackKey()] = true
	}
	sr, err := replay(tr, windowed)
	if err != nil {
		return err
	}
	both := 0
	for i := range sr.Report.Pairs {
		if inFull[sr.Report.Pairs[i].CallstackKey()] {
			both++
		}
	}
	m["detect.windowed_recall"] = float64(both) / float64(max(len(fullRep.Pairs), 1))
	m["detect.windowed_precision"] = float64(both) / float64(max(len(sr.Report.Pairs), 1))
	return nil
}

// probeScanCache times the cache primitives over the workload's windows:
// keying, memory-tier and disk-tier lookups, and stores into a fresh cache.
func probeScanCache(t *tracer, m metricSet, tr *trace.Trace, opts core.Options, cache *scancache.Cache, dir string) error {
	spec, ok := scancache.SpecFor(opts.HB, opts.Detect)
	if !ok {
		return errors.New("workload options are not cacheable")
	}
	windows := hb.ChunkWindows(len(tr.Recs), opts.ChunkSize, 0)
	keys := make([]scancache.Key, len(windows))
	m["scancache.key_ms"] = probeSpan(t, "scancache.key", -1, func() {
		for i, wn := range windows {
			keys[i] = spec.KeyTrace(tr.Window(wn[0], wn[1]))
		}
	})
	lookup := func(c *scancache.Cache) (entries []scancache.Entry, err error) {
		for _, k := range keys {
			ent, hit := c.Get(k)
			if !hit {
				return nil, errors.New("a window of the base trace is missing from the populated cache")
			}
			entries = append(entries, ent)
		}
		return entries, nil
	}
	var entries []scancache.Entry
	var err error
	m["scancache.get_mem_ms"] = probeSpan(t, "scancache.get_mem", -1, func() { entries, err = lookup(cache) })
	if err != nil {
		return err
	}
	disk, err := scancache.New(scancache.Config{Dir: dir})
	if err != nil {
		return err
	}
	m["scancache.get_disk_ms"] = probeSpan(t, "scancache.get_disk", -1, func() { _, err = lookup(disk) })
	if err != nil {
		return err
	}
	putDir, err := tempDir("scancache-put-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(putDir)
	fresh, err := scancache.New(scancache.Config{Dir: putDir})
	if err != nil {
		return err
	}
	var total int
	m["scancache.put_ms"] = probeSpan(t, "scancache.put", -1, func() {
		for i, ent := range entries {
			fresh.Put(keys[i], ent)
			total += len(ent.Payload)
		}
	})
	m["scancache.entry_bytes"] = float64(total) / float64(len(entries))
	return nil
}

// probeProvisional runs the stream layer's online candidate engine, the one
// dcatch-serve runs while an upload arrives, over the served trace.
func probeProvisional(t *tracer, m metricSet, tr *trace.Trace, opts core.Options) {
	var candidates, retractions int
	an := stream.New(stream.Options{
		HB: opts.HB, Detect: opts.Detect, ChunkSize: opts.ChunkSize, Provisional: true,
		OnEvent: func(ev stream.Event) {
			switch ev.Kind {
			case stream.EventCandidate:
				candidates++
			case stream.EventRetract:
				retractions++
			}
		},
	})
	m["stream.provisional_ms"] = probeSpan(t, "stream.provisional", -1, func() { an.AppendTrace(tr) })
	an.Finish()
	m["stream.provisional_candidates"] = float64(candidates)
	m["stream.retractions"] = float64(retractions)
}

// probeSubjects times the stages core.Detect and core.ValidateAll are made
// of, one subject after another, summed over the seven.
func probeSubjects(t *tracer, m metricSet, benches []*subjects.Benchmark) error {
	root := t.start("probe.subjects", probeJob, -1)
	defer t.end(root)
	var base, traced, newMs, prune, validate float64
	var steps, records, candidates, pruned int
	for _, b := range benches {
		w := b.Workload
		var run *rt.Result
		var err error
		base += probeSpan(t, "rt.base_run", root, func() {
			run, err = rt.Run(w, rt.Options{Seed: b.Seed, MaxSteps: b.MaxSteps})
		})
		if err != nil {
			return fmt.Errorf("%s: base run: %w", b.ID, err)
		}
		steps += run.Steps
		var an *analysis.Analysis
		newMs += probeSpan(t, "analysis.new", root, func() { an = analysis.New(w.Program) })
		col := trace.NewCollector(w.Name)
		traced += probeSpan(t, "rt.traced_run", root, func() {
			_, err = rt.Run(w, rt.Options{
				Seed: b.Seed, MaxSteps: b.MaxSteps,
				Collector: col, TraceMem: true, MemScope: an.TraceScope(),
			})
		})
		if err != nil {
			return fmt.Errorf("%s: traced run: %w", b.ID, err)
		}
		records += col.Len()

		res, err := core.Detect(w, core.Options{Seed: b.Seed, MaxSteps: b.MaxSteps})
		if err != nil {
			return fmt.Errorf("%s: %w", b.ID, err)
		}
		prune += probeSpan(t, "analysis.prune", root, func() {
			_, n := res.Analysis.Prune(res.TA, res.Trace)
			pruned += n
		})
		candidates += res.TA.CallstackCount()
		for i := range res.Final.Pairs {
			validate += probeSpan(t, "trigger.validate", root, func() {
				trigger.Validate(w, res.Final.Pairs[i], res.Trace, res.Graph,
					trigger.Options{Seed: res.Seed(), MaxSteps: validateSteps})
			})
		}
	}
	m["rt.base_run_ms"] = base
	m["rt.traced_run_ms"] = traced
	m["rt.tracing_slowdown"] = traced / base
	m["rt.steps"] = float64(steps)
	m["rt.records"] = float64(records)
	m["analysis.new_ms"] = newMs
	m["analysis.prune_ms"] = prune
	m["analysis.pruned_share"] = float64(pruned) / float64(max(candidates, 1))
	m["trigger.validate_ms"] = validate
	return nil
}
