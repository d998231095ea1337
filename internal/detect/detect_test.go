package detect

import (
	"math/rand"
	"strings"
	"testing"

	"dcatch/internal/hb"
	"dcatch/internal/ir"
	"dcatch/internal/trace"
)

func emit(c *trace.Collector, r trace.Rec) int {
	c.Emit(r)
	return c.Len() - 1
}

func mem(c *trace.Collector, th, ctx int32, kind trace.Kind, obj string, static int32, stack ...int32) int {
	return emit(c, trace.Rec{
		Node: "n", Thread: th, Ctx: ctx, CtxKind: trace.CtxRegular,
		Kind: kind, Obj: obj, StaticID: static, Stack: stack,
	})
}

func build(t *testing.T, c *trace.Collector, cfg hb.Config) *hb.Graph {
	t.Helper()
	g, err := hb.Build(c.Trace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFindsConcurrentConflict(t *testing.T) {
	c := trace.NewCollector("t")
	mem(c, 1, 1, trace.KMemWrite, "n/x", 10)
	mem(c, 2, 2, trace.KMemRead, "n/x", 20)
	rep := Find(build(t, c, hb.Config{}), Options{})
	if rep.StaticCount() != 1 || rep.CallstackCount() != 1 {
		t.Fatalf("counts: %d static, %d callstack; want 1,1", rep.StaticCount(), rep.CallstackCount())
	}
	if !rep.HasStaticPair(10, 20) || !rep.HasStaticPair(20, 10) {
		t.Fatal("HasStaticPair must be order-insensitive")
	}
	if rep.HasStaticPair(10, 99) {
		t.Fatal("HasStaticPair false positive")
	}
}

func TestIgnoresReadRead(t *testing.T) {
	c := trace.NewCollector("t")
	mem(c, 1, 1, trace.KMemRead, "n/x", 10)
	mem(c, 2, 2, trace.KMemRead, "n/x", 20)
	if rep := Find(build(t, c, hb.Config{}), Options{}); len(rep.Pairs) != 0 {
		t.Fatalf("read-read reported: %+v", rep.Pairs)
	}
}

func TestIgnoresDifferentObjects(t *testing.T) {
	c := trace.NewCollector("t")
	mem(c, 1, 1, trace.KMemWrite, "n/x", 10)
	mem(c, 2, 2, trace.KMemWrite, "n/y", 20)
	if rep := Find(build(t, c, hb.Config{}), Options{}); len(rep.Pairs) != 0 {
		t.Fatalf("different objects reported: %+v", rep.Pairs)
	}
}

func TestIgnoresOrderedAccesses(t *testing.T) {
	c := trace.NewCollector("t")
	mem(c, 1, 1, trace.KMemWrite, "n/x", 10)
	emit(c, trace.Rec{Node: "n", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KThreadCreate, Op: 9, StaticID: 11})
	emit(c, trace.Rec{Node: "n", Thread: 2, Ctx: 2, CtxKind: trace.CtxRegular, Kind: trace.KThreadBegin, Op: 9, StaticID: -1})
	mem(c, 2, 2, trace.KMemRead, "n/x", 20)
	if rep := Find(build(t, c, hb.Config{}), Options{}); len(rep.Pairs) != 0 {
		t.Fatalf("HB-ordered pair reported: %+v", rep.Pairs)
	}
}

func TestIgnoresSameContext(t *testing.T) {
	c := trace.NewCollector("t")
	mem(c, 1, 1, trace.KMemWrite, "n/x", 10)
	mem(c, 1, 1, trace.KMemRead, "n/x", 20)
	if rep := Find(build(t, c, hb.Config{}), Options{}); len(rep.Pairs) != 0 {
		t.Fatalf("same-context pair reported: %+v", rep.Pairs)
	}
}

func TestCallstackVsStaticCounting(t *testing.T) {
	// The same static pair reached through two different callstacks counts
	// once statically, twice by callstack (paper §7.1).
	c := trace.NewCollector("t")
	mem(c, 1, 1, trace.KMemWrite, "n/x", 10, 100)
	mem(c, 1, 1, trace.KMemWrite, "n/x", 10, 101) // same static, different stack
	mem(c, 2, 2, trace.KMemRead, "n/x", 20, 200)
	rep := Find(build(t, c, hb.Config{}), Options{})
	if rep.StaticCount() != 1 {
		t.Fatalf("static count = %d, want 1", rep.StaticCount())
	}
	if rep.CallstackCount() != 2 {
		t.Fatalf("callstack count = %d, want 2", rep.CallstackCount())
	}
}

func TestDynamicFolding(t *testing.T) {
	c := trace.NewCollector("t")
	// Two dynamic instances of the same (stack, stack) pair.
	mem(c, 1, 1, trace.KMemWrite, "n/x", 10)
	mem(c, 1, 1, trace.KMemWrite, "n/x", 10)
	mem(c, 2, 2, trace.KMemRead, "n/x", 20)
	rep := Find(build(t, c, hb.Config{}), Options{})
	if len(rep.Pairs) != 1 {
		t.Fatalf("pairs = %d, want 1", len(rep.Pairs))
	}
	if rep.Pairs[0].Dynamic != 2 {
		t.Fatalf("dynamic count = %d, want 2", rep.Pairs[0].Dynamic)
	}
}

func TestSuppressPull(t *testing.T) {
	c := trace.NewCollector("t")
	w := mem(c, 2, 2, trace.KMemWrite, "n/jMap", 20)
	emit(c, trace.Rec{Node: "n", Thread: 3, Ctx: 3, CtxKind: trace.CtxRPC, Kind: trace.KMemRead, Obj: "n/jMap", StaticID: 21, WriterSeq: uint64(w + 1)})
	emit(c, trace.Rec{Node: "m", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KLoopExit, Op: 40, StaticID: 40})
	cfg := hb.Config{LoopReads: map[int32][]int32{40: {21}}}
	g := build(t, c, cfg)
	if len(g.PullPairs) != 1 {
		t.Fatalf("pull pair not discovered: %+v", g.PullPairs)
	}
	with := Find(g, Options{SuppressPull: true})
	without := Find(g, Options{})
	if len(without.Pairs) != 1 {
		t.Fatalf("unsuppressed pairs = %d, want 1", len(without.Pairs))
	}
	if len(with.Pairs) != 0 {
		t.Fatalf("pull-sync pair not suppressed: %+v", with.Pairs)
	}
}

func TestZnodeConflicts(t *testing.T) {
	// HB-4729 style: delete/read on a znode across nodes.
	c := trace.NewCollector("t")
	emit(c, trace.Rec{Node: "m", Thread: 1, Ctx: 1, CtxKind: trace.CtxEvent, Kind: trace.KMemWrite, Obj: "zk:/unassigned/r1", StaticID: 10})
	emit(c, trace.Rec{Node: "m", Thread: 2, Ctx: 2, CtxKind: trace.CtxEvent, Kind: trace.KMemRead, Obj: "zk:/unassigned/r1", StaticID: 20})
	rep := Find(build(t, c, hb.Config{}), Options{})
	if len(rep.Pairs) != 1 || rep.Pairs[0].Obj != "zk:/unassigned/r1" {
		t.Fatalf("znode conflict not found: %+v", rep.Pairs)
	}
}

func TestSubsampleBounded(t *testing.T) {
	c := trace.NewCollector("t")
	// A hot counter with thousands of accesses from two contexts.
	for i := 0; i < 3000; i++ {
		th := int32(1 + i%2)
		kind := trace.KMemRead
		if i%2 == 0 {
			kind = trace.KMemWrite
		}
		mem(c, th, th, kind, "n/counter", int32(100+i%2))
	}
	rep := Find(build(t, c, hb.Config{}), Options{MaxGroup: 100})
	if len(rep.Pairs) == 0 {
		t.Fatal("hot-location race lost by subsampling")
	}
	if rep.StaticCount() != 1 {
		t.Fatalf("static count = %d, want 1", rep.StaticCount())
	}
}

func TestFormatAndDescribe(t *testing.T) {
	b := ir.NewProgram("p")
	f := b.Func("main")
	f.Write("x", nil, ir.I(1))
	f.Read("x", nil, "v")
	prog := b.MustBuild()
	c := trace.NewCollector("t")
	mem(c, 1, 1, trace.KMemWrite, "n/x", int32(prog.Funcs["main"].Body[0].Meta().ID))
	mem(c, 2, 2, trace.KMemRead, "n/x", int32(prog.Funcs["main"].Body[1].Meta().ID))
	rep := Find(build(t, c, hb.Config{}), Options{})
	out := rep.Format(prog)
	if !strings.Contains(out, "main#0") || !strings.Contains(out, "main#1") {
		t.Fatalf("Format lacks positions:\n%s", out)
	}
	if !strings.Contains(out, "1 static pairs, 1 callstack pairs") {
		t.Fatalf("Format lacks counts:\n%s", out)
	}
}

func TestFindChunkedMatchesFullOnLocalRaces(t *testing.T) {
	// A race whose accesses are close together must be found by chunked
	// detection too, with record indices rebased onto the full trace.
	c := trace.NewCollector("t")
	for i := 0; i < 40; i++ {
		mem(c, 1, 1, trace.KMemRead, "n/pad", int32(100+i))
	}
	w := mem(c, 1, 1, trace.KMemWrite, "n/x", 10)
	r := mem(c, 2, 2, trace.KMemRead, "n/x", 20)
	for i := 0; i < 40; i++ {
		mem(c, 1, 1, trace.KMemRead, "n/pad2", int32(200+i))
	}
	tr := c.Trace()
	chunks, err := hb.BuildChunked(tr, hb.ChunkConfig{ChunkSize: 30, ChunkOverlap: 10})
	if err != nil {
		t.Fatal(err)
	}
	rep := FindChunked(chunks, Options{})
	if !rep.HasStaticPair(10, 20) {
		t.Fatalf("chunked detection missed the race: %+v", rep.Pairs)
	}
	for i := range rep.Pairs {
		p := &rep.Pairs[i]
		if p.StaticKey() != "10|20" {
			continue
		}
		recs := []int{p.ARec, p.BRec}
		for _, idx := range recs {
			if idx != w && idx != r {
				t.Fatalf("representative rec %d not rebased (want %d or %d)", idx, w, r)
			}
		}
	}
}

func TestFindChunkedDedupsAcrossWindows(t *testing.T) {
	// The same pair appearing in overlapping windows is reported once.
	c := trace.NewCollector("t")
	w := mem(c, 1, 1, trace.KMemWrite, "n/x", 10)
	r := mem(c, 2, 2, trace.KMemRead, "n/x", 20)
	_ = w
	_ = r
	for i := 0; i < 20; i++ {
		mem(c, 1, 1, trace.KMemRead, "n/pad", int32(100+i))
	}
	chunks, err := hb.BuildChunked(c.Trace(), hb.ChunkConfig{ChunkSize: 10, ChunkOverlap: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep := FindChunked(chunks, Options{})
	if got := rep.CallstackCount(); got != 1 {
		t.Fatalf("pair reported %d times across windows, want 1", got)
	}
}

// Property: detection output order is deterministic regardless of input
// permutation concerns (reports are sorted by callstack key).
func TestFindDeterministicOrder(t *testing.T) {
	build2 := func() *Report {
		c := trace.NewCollector("t")
		mem(c, 1, 1, trace.KMemWrite, "n/b", 10, 1)
		mem(c, 2, 2, trace.KMemRead, "n/b", 20, 2)
		mem(c, 1, 1, trace.KMemWrite, "n/a", 30, 3)
		mem(c, 2, 2, trace.KMemRead, "n/a", 40, 4)
		g, err := hb.Build(c.Trace(), hb.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return Find(g, Options{})
	}
	a, b := build2(), build2()
	if len(a.Pairs) != len(b.Pairs) || len(a.Pairs) != 2 {
		t.Fatalf("pair counts differ: %d vs %d", len(a.Pairs), len(b.Pairs))
	}
	for i := range a.Pairs {
		if a.Pairs[i].StaticKey() != b.Pairs[i].StaticKey() {
			t.Fatal("report order not deterministic")
		}
	}
}

func TestDescribeUnknownStatic(t *testing.T) {
	b := ir.NewProgram("p")
	b.Func("main").Print("x")
	prog := b.MustBuild()
	p := &Pair{Obj: "n/x", AStatic: 999, BStatic: 1000}
	if !strings.Contains(p.Describe(prog), "stmt#999") {
		t.Fatalf("Describe fallback wrong: %s", p.Describe(prog))
	}
}

// TestSubsampleKeepsContextEndpoints covers the truncation fix: the final
// output must retain the first and last access of EVERY context — the old
// tail clip could drop the kept last-accesses of late contexts.
func TestSubsampleKeepsContextEndpoints(t *testing.T) {
	c := trace.NewCollector("t")
	const contexts = 10
	const perCtx = 100
	// Round-robin so every context's last access sits near the trace tail.
	for k := 0; k < perCtx; k++ {
		for th := int32(1); th <= contexts; th++ {
			mem(c, th, th, trace.KMemWrite, "n/hot", 100+th)
		}
	}
	accs := hotAccesses(t, c.Trace())
	const max = 30
	var s subsampler
	out := s.pick(accs, max)
	if len(out) > max {
		t.Fatalf("subsample returned %d > max %d", len(out), max)
	}
	kept := map[int]bool{}
	for _, a := range out {
		kept[a.index()] = true
	}
	for th := 0; th < contexts; th++ {
		first := th                       // first round-robin row
		last := len(accs) - contexts + th // last round-robin row
		if !kept[first] {
			t.Errorf("context %d first access %d dropped", th, first)
		}
		if !kept[last] {
			t.Errorf("context %d last access %d dropped", th, last)
		}
	}
}

// TestSubsampleManyContextsKeepsAllEndpoints: when the mandatory boundary
// accesses alone exceed max, they are all still returned.
func TestSubsampleManyContextsKeepsAllEndpoints(t *testing.T) {
	c := trace.NewCollector("t")
	const contexts = 40
	for k := 0; k < 5; k++ {
		for th := int32(1); th <= contexts; th++ {
			mem(c, th, th, trace.KMemWrite, "n/hot", 100+th)
		}
	}
	accs := hotAccesses(t, c.Trace())
	var s subsampler
	out := s.pick(accs, 20) // 2*40 mandatory > 20
	kept := map[int]bool{}
	for _, a := range out {
		kept[a.index()] = true
	}
	for th := 0; th < contexts; th++ {
		if !kept[th] || !kept[len(accs)-contexts+th] {
			t.Fatalf("context %d endpoint dropped under tight max", th)
		}
	}
}

// hotAccesses returns the prepass's access list of the one location of a
// trace that holds only accesses to it.
func hotAccesses(t *testing.T, tr *trace.Trace) []access {
	t.Helper()
	ax, _ := indexAccesses(tr.Recs)
	if len(ax.lists) != 1 || len(ax.lists[0]) != len(tr.Recs) {
		t.Fatalf("prepass found %d locations, want 1 holding all %d records", len(ax.lists), len(tr.Recs))
	}
	return ax.lists[0]
}

// TestSubsampledAccessesDropped pins detect.subsampled_accesses_dropped on
// the hot-location fixture: under the default cap the one hot location
// loses a fixed number of accesses (the stride padding fills well short of
// the cap), and with a cap above its size nothing is subsampled or dropped.
func TestSubsampledAccessesDropped(t *testing.T) {
	g, err := hb.Build(hotLocationTrace(rand.New(rand.NewSource(1005))), hb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, ctr := runFind(g, Options{})
	if ctr["detect.subsampled_locations"] != 1 || ctr["detect.subsampled_accesses_dropped"] != 752 {
		t.Fatalf("default cap: subsampled %d locations, dropped %d accesses; want 1, 752",
			ctr["detect.subsampled_locations"], ctr["detect.subsampled_accesses_dropped"])
	}
	_, ctr = runFind(g, Options{MaxGroup: 1 << 20})
	if ctr["detect.subsampled_locations"] != 0 || ctr["detect.subsampled_accesses_dropped"] != 0 {
		t.Fatalf("uncapped: subsampled %d locations, dropped %d accesses; want 0, 0",
			ctr["detect.subsampled_locations"], ctr["detect.subsampled_accesses_dropped"])
	}
}
