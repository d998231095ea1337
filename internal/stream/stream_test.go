package stream_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dcatch/internal/bench"
	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/stream"
	"dcatch/internal/trace"
)

// feedSegments appends the trace through the analyzer in rng-chosen segment
// sizes with a Flush after every segment, returning the analyzer.
func feedSegments(t *testing.T, tr *trace.Trace, opts stream.Options, rng *rand.Rand, segMax int) *stream.Analyzer {
	t.Helper()
	an := stream.New(opts)
	an.SetMeta(tr.Program, tr.QueueConsumers)
	for off := 0; off < len(tr.Recs); {
		n := 1
		if segMax > 1 {
			n += rng.Intn(segMax)
		}
		if off+n > len(tr.Recs) {
			n = len(tr.Recs) - off
		}
		an.AppendBatch(tr.Recs[off : off+n])
		off += n
		an.Flush()
	}
	return an
}

// The core differential property: Finish() is byte-identical to the batch
// pipeline (hb.Build + detect.Find) over the same records, for every flush
// placement — including a flush after every single record — across backends
// and MaxGroup settings.
func TestStreamFinishMatchesBatch(t *testing.T) {
	type cfg struct {
		n        int
		backend  hb.Backend
		maxGroup int
		segMax   int // 1 = flush after every record
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
		tr := bench.SyntheticTrace(c.n, int64(ci+1))
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

// AppendTrace's adoption path must behave exactly like record-by-record
// appends.
func TestStreamAppendTraceAdoption(t *testing.T) {
	tr := bench.SyntheticTrace(800, 3)
	opts := stream.Options{HB: hb.Config{ReachBackend: hb.BackendChain}}

	one := stream.New(opts)
	one.AppendTrace(tr)
	a := one.Finish()

	two := stream.New(opts)
	two.SetMeta(tr.Program, tr.QueueConsumers)
	for i := range tr.Recs {
		two.Append(tr.Recs[i])
	}
	b := two.Finish()

	if a.Report.Format(nil) != b.Report.Format(nil) {
		t.Fatal("adopted and appended traces produce different reports")
	}
}

// Provisional candidates must cover the final report (the trace is small
// enough that the group cap never trims), and the provisional set minus the
// retractions must equal the final callstack-pair set exactly.
func TestStreamProvisionalCoversFinal(t *testing.T) {
	tr := bench.SyntheticTrace(2000, 11)
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

// Eager mode with no manual flush must reproduce the reference
// (hb.BuildChunked + detect.FindChunked) byte for byte, window list included.
func TestStreamEagerMatchesBatchChunked(t *testing.T) {
	for _, backend := range []hb.Backend{hb.BackendDense, hb.BackendChain} {
		for _, chunk := range []int{256, 500, 2000, 5000} {
			tr := bench.SyntheticTrace(2000, 5)
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
			wins := an.Windows()
			if len(wins) != len(chunks) {
				t.Fatalf("backend %s chunk %d: %d eager windows, batch has %d",
					backend, chunk, len(wins), len(chunks))
			}
			for i, w := range wins {
				if w[0] != chunks[i].Start {
					t.Fatalf("backend %s chunk %d: window %d starts at %d, batch at %d",
						backend, chunk, i, w[0], chunks[i].Start)
				}
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

// Manual flush boundaries in eager mode produce a different window list; the
// oracle is then FindChunked over chunks built from the analyzer's own
// Windows(). Randomized flush placement, including flush-per-record.
func TestStreamEagerFlushBoundaries(t *testing.T) {
	tr := bench.SyntheticTrace(1200, 9)
	hcfg := hb.Config{ReachBackend: hb.BackendChain}
	for _, segMax := range []int{1, 50, 300} {
		rng := rand.New(rand.NewSource(int64(segMax)))
		an := feedSegments(t, tr, stream.Options{
			HB: hcfg, ChunkSize: 400, Eager: true,
		}, rng, segMax)
		res := an.Finish()
		if res.OOM {
			t.Fatalf("segMax %d: unexpected OOM", segMax)
		}
		var chunks []hb.Chunk
		for _, w := range an.Windows() {
			sub := &trace.Trace{
				Program:        tr.Program,
				Recs:           append([]trace.Rec(nil), tr.Recs[w[0]:w[1]]...),
				QueueConsumers: tr.QueueConsumers,
			}
			g, err := hb.Build(sub, hcfg)
			if err != nil {
				t.Fatal(err)
			}
			chunks = append(chunks, hb.Chunk{Start: w[0], Graph: g})
		}
		want := detect.FindChunked(chunks, detect.Options{}).Format(nil)
		if got := res.Report.Format(nil); got != want {
			t.Fatalf("segMax %d: eager flush-boundary report diverges from chunked oracle", segMax)
		}
	}
}

// Eager live memory must stay far below the full-trace footprint: the whole
// point of analyzing windows on arrival.
func TestStreamEagerBoundsLiveMemory(t *testing.T) {
	tr := bench.SyntheticTraceBounded(20000, 4)
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
	tr := bench.SyntheticTrace(2000, 7)
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
	tr := bench.SyntheticTrace(600, 2)
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

// Window events carry the closed ranges in order and flag newly added pairs;
// the sweep's first-window candidates give streaming its early signal.
func TestStreamEagerWindowEvents(t *testing.T) {
	tr := bench.SyntheticTrace(1000, 6)
	var events []stream.Event
	an := stream.New(stream.Options{
		HB: hb.Config{ReachBackend: hb.BackendChain}, ChunkSize: 250, Eager: true,
		OnEvent: func(ev stream.Event) { events = append(events, ev) },
	})
	an.AppendTrace(tr)
	an.Finish()
	if len(events) == 0 {
		t.Fatal("no window events")
	}
	prevEnd := 0
	for _, ev := range events {
		if ev.Kind != stream.EventWindow {
			t.Fatalf("unexpected event kind %v", ev.Kind)
		}
		if ev.WindowEnd <= ev.WindowStart && ev.WindowEnd != 0 {
			t.Fatalf("bad window [%d,%d)", ev.WindowStart, ev.WindowEnd)
		}
		if ev.WindowEnd < prevEnd {
			t.Fatal("window events out of order")
		}
		prevEnd = ev.WindowEnd
	}
	if events[0].Added == 0 {
		t.Fatal("first window contributed no pairs; early signal missing")
	}
	if events[0].WindowEnd >= len(tr.Recs) {
		t.Fatal("first window closed only at end of trace")
	}
}

func ExampleAnalyzer() {
	tr := bench.SyntheticTrace(400, 1)
	an := stream.New(stream.Options{HB: hb.Config{ReachBackend: hb.BackendChain}})
	an.AppendTrace(tr)
	res := an.Finish()
	fmt.Println(res.Report.CallstackCount() > 0)
	// Output: true
}
