package stream_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/stream"
	"dcatch/internal/testtrace"
	"dcatch/internal/trace"
)

// feedSegments drives the analyzer the way a trace job does: the records
// are ingested in rng-chosen segment sizes, then the complete trace is
// handed over with AppendTrace. It returns the analyzer.
func feedSegments(t *testing.T, tr *trace.Trace, opts stream.Options, rng *rand.Rand, segMax int) *stream.Analyzer {
	t.Helper()
	an := stream.New(opts)
	for off := 0; off < len(tr.Recs); {
		n := 1
		if segMax > 1 {
			n += rng.Intn(segMax)
		}
		if off+n > len(tr.Recs) {
			n = len(tr.Recs) - off
		}
		an.IngestBatch(tr.Recs[off : off+n])
		off += n
	}
	an.AppendTrace(tr)
	return an
}

// The core differential property: Finish() is byte-identical to the batch
// pipeline (hb.Build + detect.Find) over the same records, for every
// segmentation of the ingest — including one record per segment — across
// backends and MaxGroup settings.
func TestStreamFinishMatchesBatch(t *testing.T) {
	type cfg struct {
		n        int
		backend  hb.Backend
		maxGroup int
		segMax   int // 1 = one record per segment
	}
	cases := []cfg{
		{0, hb.BackendChain, 0, 1},
		{1, hb.BackendChain, 0, 1},
		{200, hb.BackendChain, 0, 1},
		{200, hb.BackendDense, 0, 1},
		{1500, hb.BackendChain, 0, 97},
		{1500, hb.BackendChain, 0, 64},
		{1500, hb.BackendDense, 8, 33},
		{1500, hb.BackendChain, 8, 256},
	}
	for ci, c := range cases {
		tr := testtrace.SyntheticTrace(c.n, int64(ci+1))
		hcfg := hb.Config{ReachBackend: c.backend}
		dopt := detect.Options{MaxGroup: c.maxGroup}

		g, err := hb.Build(tr, hcfg)
		if err != nil {
			t.Fatalf("case %d: batch build: %v", ci, err)
		}
		want := detect.Find(g, dopt).Format(nil)

		rng := rand.New(rand.NewSource(int64(ci)))
		an := feedSegments(t, tr, stream.Options{
			HB: hcfg, Detect: dopt, Provisional: true,
		}, rng, c.segMax)
		res := an.Finish()
		if res.OOM || res.Chunked {
			t.Fatalf("case %d: unexpected OOM/chunked result", ci)
		}
		if got := res.Report.Format(nil); got != want {
			t.Fatalf("case %d: stream report diverges from batch\nbatch:\n%s\nstream:\n%s", ci, want, got)
		}
		if res.HBVertices != g.N() || res.HBEdges != g.Edges() ||
			res.HBMemBytes != g.MemBytes() || res.Backend != g.Backend().String() {
			t.Fatalf("case %d: stream stats diverge from batch graph", ci)
		}
		if res2 := an.Finish(); res2 != res {
			t.Fatalf("case %d: Finish not idempotent", ci)
		}
	}
}

// AppendTrace adopting a whole trace must behave exactly like ingesting it
// first — one record per segment, then half of it — and handing the trace
// over afterwards: same provisional events in the same order, same report.
func TestStreamAppendTraceAdoption(t *testing.T) {
	tr := testtrace.SyntheticTrace(800, 3)
	run := func(ingest func(an *stream.Analyzer)) (string, []stream.Event) {
		var events []stream.Event
		an := stream.New(stream.Options{
			HB: hb.Config{ReachBackend: hb.BackendChain}, Provisional: true,
			OnEvent: func(ev stream.Event) { events = append(events, ev) },
		})
		ingest(an)
		an.AppendTrace(tr)
		return an.Finish().Report.Format(nil), events
	}
	wantReport, wantEvents := run(func(*stream.Analyzer) {})
	if len(wantEvents) == 0 {
		t.Fatal("no provisional events")
	}
	for name, ingest := range map[string]func(an *stream.Analyzer){
		"per-record": func(an *stream.Analyzer) {
			for i := range tr.Recs {
				an.IngestBatch(tr.Recs[i : i+1])
			}
		},
		"half": func(an *stream.Analyzer) { an.IngestBatch(tr.Recs[:len(tr.Recs)/2]) },
	} {
		report, events := run(ingest)
		if report != wantReport {
			t.Fatalf("%s: ingested and adopted traces produce different reports", name)
		}
		if !reflect.DeepEqual(events, wantEvents) {
			t.Fatalf("%s: %d provisional events, adoption alone raised %d (or they differ)", name, len(events), len(wantEvents))
		}
	}
}

// Provisional candidates must cover the final report (the trace is small
// enough that the group cap never trims), and the provisional set minus the
// retractions must equal the final callstack-pair set exactly.
func TestStreamProvisionalCoversFinal(t *testing.T) {
	tr := testtrace.SyntheticTrace(2000, 11)
	var candidates, retracted []*detect.Pair
	firstAt := -1
	an := stream.New(stream.Options{
		HB:          hb.Config{ReachBackend: hb.BackendChain},
		Provisional: true,
		OnEvent: func(ev stream.Event) {
			switch ev.Kind {
			case stream.EventCandidate:
				if firstAt < 0 {
					firstAt = ev.Records
				}
				candidates = append(candidates, ev.Pair)
			case stream.EventRetract:
				retracted = append(retracted, ev.Pair)
			}
		},
	})
	an.AppendTrace(tr)
	res := an.Finish()
	if res.Report == nil || len(res.Report.Pairs) == 0 {
		t.Fatal("expected a non-empty final report")
	}
	if firstAt < 0 {
		t.Fatal("no provisional candidate emitted")
	}
	if firstAt >= len(tr.Recs) {
		t.Fatalf("first candidate only at record %d of %d", firstAt, len(tr.Recs))
	}

	live := map[detect.CallstackKey]bool{}
	for _, p := range candidates {
		live[p.CallstackKey()] = true
	}
	finalKeys := map[detect.CallstackKey]bool{}
	for i := range res.Report.Pairs {
		k := res.Report.Pairs[i].CallstackKey()
		finalKeys[k] = true
		if !live[k] {
			t.Fatalf("final pair %v never emitted provisionally", k)
		}
	}
	for _, p := range retracted {
		k := p.CallstackKey()
		if finalKeys[k] {
			t.Fatalf("retracted pair %v is in the final report", k)
		}
		if !live[k] {
			t.Fatalf("retracted pair %v was never a candidate", k)
		}
		delete(live, k)
	}
	if len(live) != len(finalKeys) {
		t.Fatalf("candidates minus retractions = %d keys, final report has %d",
			len(live), len(finalKeys))
	}
	if an.FrontierBytes() <= 0 {
		t.Fatal("frontier bytes not accounted")
	}
}

// Eager mode must reproduce the reference (hb.BuildChunked +
// detect.FindChunked) byte for byte; TestWindowCutterMatchesChunkWindows pins
// the window list they share.
func TestStreamEagerMatchesBatchChunked(t *testing.T) {
	for _, backend := range []hb.Backend{hb.BackendDense, hb.BackendChain} {
		for _, chunk := range []int{256, 500, 2000, 5000} {
			tr := testtrace.SyntheticTrace(2000, 5)
			hcfg := hb.Config{ReachBackend: backend}
			dopt := detect.Options{}

			chunks, err := hb.BuildChunked(tr, hb.ChunkConfig{Base: hcfg, ChunkSize: chunk})
			if err != nil {
				t.Fatal(err)
			}
			want := detect.FindChunked(chunks, dopt).Format(nil)

			an := stream.New(stream.Options{
				HB: hcfg, Detect: dopt, ChunkSize: chunk, Eager: true,
			})
			an.AppendTrace(tr)
			res := an.Finish()
			if !res.Chunked || res.OOM {
				t.Fatalf("backend %s chunk %d: expected chunked result", backend, chunk)
			}
			if got := res.Report.Format(nil); got != want {
				t.Fatalf("backend %s chunk %d: eager report diverges from batch chunked", backend, chunk)
			}
			if res.HBMemBytes != hb.ChunkedMemBytes(chunks) {
				t.Fatalf("backend %s chunk %d: peak window bytes diverge", backend, chunk)
			}
			if res.Backend != chunks[0].Graph.Backend().String() {
				t.Fatalf("backend %s chunk %d: backend string diverges", backend, chunk)
			}
		}
	}
}

// Eager live memory must stay far below the full-trace footprint: the whole
// point of analyzing windows on arrival.
func TestStreamEagerBoundsLiveMemory(t *testing.T) {
	tr := testtrace.SyntheticTraceBounded(20000, 4)
	an := stream.New(stream.Options{
		HB: hb.Config{ReachBackend: hb.BackendChain}, ChunkSize: 2000, Eager: true,
	})
	an.AppendTrace(tr)
	res := an.Finish()
	if res.OOM {
		t.Fatal("unexpected OOM")
	}
	full := hbFullFootprint(t, tr)
	if peak := an.PeakLiveBytes(); peak >= full {
		t.Fatalf("eager peak live %d >= full batch footprint %d", peak, full)
	}
}

func hbFullFootprint(t *testing.T, tr *trace.Trace) int64 {
	t.Helper()
	g, err := hb.Build(tr, hb.Config{ReachBackend: hb.BackendChain})
	if err != nil {
		t.Fatal(err)
	}
	// The batch pipeline holds the decoded records plus the closure.
	return int64(len(tr.Recs))*112 + g.MemBytes()
}

// The non-eager budget fallback must replay windows byte-identically to
// hb.BuildChunked + detect.FindChunked, sequentially and through the bounded
// parallel pipeline.
func TestStreamFallbackMatchesBatchChunked(t *testing.T) {
	tr := testtrace.SyntheticTrace(2000, 7)
	const budget = 100_000 // full dense closure ~512KB fails; 256-record windows fit
	for _, par := range []int{1, 4} {
		hcfg := hb.Config{ReachBackend: hb.BackendDense, MemBudget: budget, Parallelism: par}
		dopt := detect.Options{}

		if _, err := hb.Build(tr, hcfg); err == nil {
			t.Fatal("full build unexpectedly fit the budget; fallback not exercised")
		}
		chunks, err := hb.BuildChunked(tr, hb.ChunkConfig{Base: hcfg, ChunkSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		want := detect.FindChunked(chunks, dopt).Format(nil)

		an := stream.New(stream.Options{HB: hcfg, Detect: dopt, ChunkSize: 256})
		an.AppendTrace(tr)
		res := an.Finish()
		if !res.Chunked || res.OOM {
			t.Fatalf("par %d: expected chunked fallback result", par)
		}
		if got := res.Report.Format(nil); got != want {
			t.Fatalf("par %d: fallback report diverges from batch chunked", par)
		}
		if res.HBMemBytes != hb.ChunkedMemBytes(chunks) {
			t.Fatalf("par %d: fallback peak bytes diverge", par)
		}
	}

	// No ChunkSize: the budget error surfaces as OOM, like core.AnalyzeTrace.
	an := stream.New(stream.Options{HB: hb.Config{ReachBackend: hb.BackendDense, MemBudget: 100_000}})
	an.AppendTrace(tr)
	if res := an.Finish(); !res.OOM || res.Chunked || res.Err == nil {
		t.Fatal("expected unchunked OOM result")
	}

	// Budget so tight even one window fails: chunked OOM.
	an = stream.New(stream.Options{
		HB:        hb.Config{ReachBackend: hb.BackendDense, MemBudget: 1000},
		ChunkSize: 256,
	})
	an.AppendTrace(tr)
	if res := an.Finish(); !res.OOM || !res.Chunked || res.Err == nil {
		t.Fatal("expected chunked OOM result")
	}
}

// A failed window stops the replay: with window 0 over budget and every
// later window under it, at most HB.Parallelism further windows are built
// before the error is returned, and the error is the reference's.
func TestStreamReplayStopsAfterFailedWindow(t *testing.T) {
	// Window 0 has one chain per record. The later windows share at most its
	// last chunk/4 records and hold two more chains, so a chain-index budget
	// of twice the largest later window refuses only window 0.
	const chunk, n = 128, 2200
	c := trace.NewCollector("wide-head")
	for i := 0; i < n; i++ {
		th := int32(1 + i%2)
		if i < chunk {
			th = int32(10 + i)
		}
		c.Emit(trace.Rec{Node: "n", Thread: th, Ctx: th, CtxKind: trace.CtxRegular,
			Kind: trace.KMemWrite, Obj: "n/x", StaticID: int32(i % 7), Stack: []int32{int32(i % 5)}})
	}
	tr := c.Trace()
	hcfg := hb.Config{ReachBackend: hb.BackendChain}
	windows := hb.ChunkWindows(n, chunk, 0)
	if len(windows) < 16 {
		t.Fatalf("only %d windows", len(windows))
	}
	for _, wn := range windows[1:] {
		g, err := hb.Build(tr.Window(wn[0], wn[1]), hb.Config{ReachBackend: hb.BackendChain})
		if err != nil {
			t.Fatal(err)
		}
		hcfg.MemBudget = max(hcfg.MemBudget, 2*g.MemBytes())
	}
	_, want := hb.BuildChunked(tr, hb.ChunkConfig{Base: hcfg, ChunkSize: chunk})
	if want == nil {
		t.Fatal("the reference built window 0")
	}
	for _, p := range []int{1, 4} {
		rec := obs.New()
		sp := rec.Span("test")
		cfg := hcfg
		cfg.Parallelism, cfg.Obs = p, sp
		an := stream.New(stream.Options{HB: cfg, ChunkSize: chunk})
		an.AppendTrace(tr)
		res := an.Finish()
		sp.End()
		if !res.OOM || !res.Chunked || res.Err == nil || res.Err.Error() != want.Error() {
			t.Fatalf("p=%d: result %+v, want chunked OOM %q", p, res, want)
		}
		built := countSpans(rec.Spans(0), "hb.build")
		if built > p {
			t.Errorf("p=%d: %d of %d windows built after window 0 failed, want at most %d", p, built, len(windows)-1, p)
		}
		if p > 1 && built == 0 {
			t.Errorf("p=%d: no window was built; the later windows do not fit the budget either", p)
		}
	}
}

func countSpans(spans []obs.SpanData, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
		n += countSpans(s.Children, name)
	}
	return n
}

// Eager mode propagates a window budget failure as a chunked OOM with the
// same error text the batch path produces.
func TestStreamEagerWindowOOM(t *testing.T) {
	tr := testtrace.SyntheticTrace(600, 2)
	an := stream.New(stream.Options{
		HB:        hb.Config{ReachBackend: hb.BackendDense, MemBudget: 1000},
		ChunkSize: 256, Eager: true,
	})
	an.AppendTrace(tr)
	res := an.Finish()
	if !res.OOM || !res.Chunked || res.Err == nil {
		t.Fatal("expected chunked OOM result")
	}
	_, err := hb.BuildChunked(tr, hb.ChunkConfig{
		Base: hb.Config{ReachBackend: hb.BackendDense, MemBudget: 1000}, ChunkSize: 256,
	})
	if err == nil {
		t.Fatal("batch chunked unexpectedly fit")
	}
	if res.Err.Error() != err.Error() {
		t.Fatalf("eager OOM error %q, batch %q", res.Err, err)
	}
}

func ExampleAnalyzer() {
	tr := testtrace.SyntheticTrace(400, 1)
	an := stream.New(stream.Options{HB: hb.Config{ReachBackend: hb.BackendChain}})
	an.AppendTrace(tr)
	res := an.Finish()
	fmt.Println(res.Report.CallstackCount() > 0)
	// Output: true
}
