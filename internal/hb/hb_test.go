package hb

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"dcatch/internal/trace"
)

// tb is a tiny trace builder for HB tests.
type tb struct {
	c *trace.Collector
}

func newTB() *tb { return &tb{c: trace.NewCollector("t")} }

func (b *tb) rec(r trace.Rec) int {
	b.c.Emit(r)
	return b.c.Len() - 1
}

func (b *tb) mem(node string, th, ctx int32, ck trace.CtxKind, kind trace.Kind, obj string, static int32) int {
	return b.rec(trace.Rec{Node: node, Thread: th, Ctx: ctx, CtxKind: ck, Kind: kind, Obj: obj, StaticID: static})
}

func (b *tb) op(node string, th, ctx int32, ck trace.CtxKind, kind trace.Kind, op uint64) int {
	return b.rec(trace.Rec{Node: node, Thread: th, Ctx: ctx, CtxKind: ck, Kind: kind, Op: op, StaticID: -1})
}

func (b *tb) build(t *testing.T, cfg Config) *Graph {
	t.Helper()
	g, err := Build(b.c.Trace(), cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestProgramOrderSameCtx(t *testing.T) {
	b := newTB()
	a := b.mem("n", 1, 1, trace.CtxRegular, trace.KMemWrite, "n/x", 1)
	c := b.mem("n", 1, 1, trace.CtxRegular, trace.KMemRead, "n/x", 2)
	d := b.mem("n", 2, 2, trace.CtxRegular, trace.KMemWrite, "n/x", 3)
	g := b.build(t, Config{})
	if !g.HappensBefore(a, c) {
		t.Fatal("program order missing")
	}
	if g.HappensBefore(a, d) || g.HappensBefore(d, a) || !g.Concurrent(a, d) {
		t.Fatal("cross-thread accesses must be concurrent")
	}
}

func TestHandlerCtxNotThreadOrdered(t *testing.T) {
	// Two event-handler instances on the SAME thread are not ordered by
	// Rule-Pnreg (paper §2.2); only Eserial can order them.
	b := newTB()
	a := b.mem("n", 1, 10, trace.CtxEvent, trace.KMemWrite, "n/x", 1)
	c := b.mem("n", 1, 11, trace.CtxEvent, trace.KMemRead, "n/x", 2)
	g := b.build(t, Config{})
	if !g.Concurrent(a, c) {
		t.Fatal("handler instances on one thread must not be Preg-ordered")
	}
}

func TestForkJoin(t *testing.T) {
	b := newTB()
	w1 := b.mem("n", 1, 1, trace.CtxRegular, trace.KMemWrite, "n/x", 1)
	cr := b.op("n", 1, 1, trace.CtxRegular, trace.KThreadCreate, 7)
	bg := b.op("n", 2, 2, trace.CtxRegular, trace.KThreadBegin, 7)
	w2 := b.mem("n", 2, 2, trace.CtxRegular, trace.KMemWrite, "n/x", 2)
	en := b.op("n", 2, 2, trace.CtxRegular, trace.KThreadEnd, 7)
	jn := b.op("n", 1, 1, trace.CtxRegular, trace.KThreadJoin, 7)
	r1 := b.mem("n", 1, 1, trace.CtxRegular, trace.KMemRead, "n/x", 3)
	g := b.build(t, Config{})
	if !g.HappensBefore(cr, bg) || !g.HappensBefore(en, jn) {
		t.Fatal("fork/join edges missing")
	}
	if !g.HappensBefore(w1, w2) {
		t.Fatal("write before fork must HB child's write")
	}
	if !g.HappensBefore(w2, r1) {
		t.Fatal("child's write must HB read after join")
	}
}

// A pair-rule target links to the first occurrence of its source's op only:
// a repeated send of the same message id orders nothing, online or batch.
func TestPairRuleFirstSource(t *testing.T) {
	b := newTB()
	s1 := b.op("n", 1, 1, trace.CtxRegular, trace.KSockSend, 4)
	s2 := b.op("n", 3, 3, trace.CtxRegular, trace.KSockSend, 4)
	rv := b.op("n", 2, 2, trace.CtxRegular, trace.KSockRecv, 4)
	g := b.build(t, Config{})
	if !g.HappensBefore(s1, rv) || g.HappensBefore(s2, rv) {
		t.Fatal("Msoc must link the receive to the first send only")
	}
	d := NewDeriver(Config{})
	for i := range g.Tr.Recs {
		st := d.Next(i, &g.Tr.Recs[i])
		if st.FirstSource != (i == s1) || (i == rv) != (st.Src == int32(s1)) {
			t.Fatalf("record %d: step %+v", i, st)
		}
	}
}

func TestRPCRule(t *testing.T) {
	b := newTB()
	w := b.mem("n1", 1, 1, trace.CtxRegular, trace.KMemWrite, "n1/x", 1)
	cr := b.op("n1", 1, 1, trace.CtxRegular, trace.KRPCCreate, 5)
	bg := b.op("n2", 2, 9, trace.CtxRPC, trace.KRPCBegin, 5)
	body := b.mem("n2", 2, 9, trace.CtxRPC, trace.KMemWrite, "n2/y", 2)
	en := b.op("n2", 2, 9, trace.CtxRPC, trace.KRPCEnd, 5)
	jn := b.op("n1", 1, 1, trace.CtxRegular, trace.KRPCJoin, 5)
	r := b.mem("n1", 1, 1, trace.CtxRegular, trace.KMemRead, "n1/x", 3)
	g := b.build(t, Config{})
	if !g.HappensBefore(w, body) {
		t.Fatal("caller write must HB RPC body (Mrpc + Preg)")
	}
	if !g.HappensBefore(body, r) {
		t.Fatal("RPC body must HB post-join read")
	}
	_ = cr
	_ = bg
	_ = en
	_ = jn
}

func TestSocketAndPushRules(t *testing.T) {
	b := newTB()
	snd := b.op("n1", 1, 1, trace.CtxRegular, trace.KSockSend, 3)
	rcv := b.op("n2", 2, 8, trace.CtxMsg, trace.KSockRecv, 3)
	upd := b.rec(trace.Rec{Node: "n1", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KZKUpdate, Obj: "/r", Op: 11, StaticID: 4})
	psh := b.rec(trace.Rec{Node: "n3", Thread: 3, Ctx: 9, CtxKind: trace.CtxWatch, Kind: trace.KZKPushed, Obj: "/r", Op: 11, StaticID: -1})
	g := b.build(t, Config{})
	if !g.HappensBefore(snd, rcv) {
		t.Fatal("Msoc edge missing")
	}
	if !g.HappensBefore(upd, psh) {
		t.Fatal("Mpush edge missing")
	}
}

// eserialTrace builds two fully-recorded events on queue q created in order
// by one thread.
func eserialTrace(consumers int) *trace.Trace {
	c := trace.NewCollector("t")
	c.SetQueueInfo("n/q", consumers)
	emit := func(r trace.Rec) { c.Emit(r) }
	emit(trace.Rec{Node: "n", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KEventCreate, Op: 100, Queue: "n/q", StaticID: 1})
	emit(trace.Rec{Node: "n", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KEventCreate, Op: 101, Queue: "n/q", StaticID: 2})
	emit(trace.Rec{Node: "n", Thread: 2, Ctx: 10, CtxKind: trace.CtxEvent, Kind: trace.KEventBegin, Op: 100, Queue: "n/q", StaticID: -1})
	emit(trace.Rec{Node: "n", Thread: 2, Ctx: 10, CtxKind: trace.CtxEvent, Kind: trace.KMemWrite, Obj: "n/x", StaticID: 3})
	emit(trace.Rec{Node: "n", Thread: 2, Ctx: 10, CtxKind: trace.CtxEvent, Kind: trace.KEventEnd, Op: 100, Queue: "n/q", StaticID: -1})
	emit(trace.Rec{Node: "n", Thread: 2, Ctx: 11, CtxKind: trace.CtxEvent, Kind: trace.KEventBegin, Op: 101, Queue: "n/q", StaticID: -1})
	emit(trace.Rec{Node: "n", Thread: 2, Ctx: 11, CtxKind: trace.CtxEvent, Kind: trace.KMemRead, Obj: "n/x", StaticID: 4})
	emit(trace.Rec{Node: "n", Thread: 2, Ctx: 11, CtxKind: trace.CtxEvent, Kind: trace.KEventEnd, Op: 101, Queue: "n/q", StaticID: -1})
	return c.Trace()
}

func TestEserialSingleConsumer(t *testing.T) {
	g, err := Build(eserialTrace(1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Handler bodies: write at index 3, read at index 6.
	if !g.HappensBefore(3, 6) {
		t.Fatal("Eserial must order handlers of a single-consumer queue")
	}
	if g.Rounds < 1 {
		t.Fatal("no fixed-point rounds recorded")
	}
}

func TestEserialMultiConsumer(t *testing.T) {
	g, err := Build(eserialTrace(2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Concurrent(3, 6) {
		t.Fatal("multi-consumer queue handlers must stay concurrent")
	}
}

func TestEserialTransitiveFixedPoint(t *testing.T) {
	// Three events; e1 -> e2 ordering only becomes visible after e0 -> e1
	// is added, exercising the fixed point: create(e1) HB create(e2) only
	// via the first Eserial edge.
	c := trace.NewCollector("t")
	c.SetQueueInfo("n/q", 1)
	emit := func(r trace.Rec) int { c.Emit(r); return c.Len() - 1 }
	// e0 created by main thread.
	emit(trace.Rec{Node: "n", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KEventCreate, Op: 100, Queue: "n/q", StaticID: 1})
	// e0 handled; its handler creates e1.
	emit(trace.Rec{Node: "n", Thread: 2, Ctx: 10, CtxKind: trace.CtxEvent, Kind: trace.KEventBegin, Op: 100, Queue: "n/q", StaticID: -1})
	emit(trace.Rec{Node: "n", Thread: 2, Ctx: 10, CtxKind: trace.CtxEvent, Kind: trace.KEventCreate, Op: 101, Queue: "n/q", StaticID: 2})
	e0end := emit(trace.Rec{Node: "n", Thread: 2, Ctx: 10, CtxKind: trace.CtxEvent, Kind: trace.KEventEnd, Op: 100, Queue: "n/q", StaticID: -1})
	// A second creator thread enqueues e2 after e0's handler ended, but
	// with no HB edge to anything yet (different thread).
	// To make create(e1) HB create(e2) discoverable only via Eserial,
	// create e2 inside e1's handler... instead simpler: e1 handled, then
	// e2 created inside e1's handler.
	e1beg := emit(trace.Rec{Node: "n", Thread: 2, Ctx: 11, CtxKind: trace.CtxEvent, Kind: trace.KEventBegin, Op: 101, Queue: "n/q", StaticID: -1})
	emit(trace.Rec{Node: "n", Thread: 2, Ctx: 11, CtxKind: trace.CtxEvent, Kind: trace.KEventCreate, Op: 102, Queue: "n/q", StaticID: 3})
	e1end := emit(trace.Rec{Node: "n", Thread: 2, Ctx: 11, CtxKind: trace.CtxEvent, Kind: trace.KEventEnd, Op: 101, Queue: "n/q", StaticID: -1})
	e2beg := emit(trace.Rec{Node: "n", Thread: 2, Ctx: 12, CtxKind: trace.CtxEvent, Kind: trace.KEventBegin, Op: 102, Queue: "n/q", StaticID: -1})
	e2end := emit(trace.Rec{Node: "n", Thread: 2, Ctx: 12, CtxKind: trace.CtxEvent, Kind: trace.KEventEnd, Op: 102, Queue: "n/q", StaticID: -1})
	g, err := Build(c.Trace(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.HappensBefore(e0end, e1beg) {
		t.Fatal("first Eserial edge missing")
	}
	if !g.HappensBefore(e1end, e2beg) {
		t.Fatal("second Eserial edge missing")
	}
	_ = e2end
}

func TestPullEdges(t *testing.T) {
	c := trace.NewCollector("t")
	emit := func(r trace.Rec) int { c.Emit(r); return c.Len() - 1 }
	// Thread 2 (event handler on srv) writes jMap; thread 3 (RPC on srv)
	// reads it with provenance; thread 1 (nm) exits its poll loop.
	w := emit(trace.Rec{Node: "srv", Thread: 2, Ctx: 5, CtxKind: trace.CtxEvent, Kind: trace.KMemWrite, Obj: "srv/jMap[j1]", StaticID: 20})
	r := emit(trace.Rec{Node: "srv", Thread: 3, Ctx: 6, CtxKind: trace.CtxRPC, Kind: trace.KMemRead, Obj: "srv/jMap[j1]", StaticID: 21, WriterSeq: uint64(w + 1)})
	exit := emit(trace.Rec{Node: "nm", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KLoopExit, Op: 40, StaticID: 40})
	after := emit(trace.Rec{Node: "nm", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KMemRead, Obj: "nm/z", StaticID: 41})
	g, err := Build(c.Trace(), Config{LoopReads: map[int32][]int32{40: {21}}})
	if err != nil {
		t.Fatal(err)
	}
	if !g.HappensBefore(w, exit) {
		t.Fatal("Mpull edge missing")
	}
	if !g.HappensBefore(w, after) {
		t.Fatal("Mpull must order the writer before post-loop code")
	}
	if len(g.PullPairs) != 1 || g.PullPairs[0].ReadStatic != 21 || g.PullPairs[0].WriteStatic != 20 {
		t.Fatalf("PullPairs = %+v", g.PullPairs)
	}
	_ = r
}

func TestPullIgnoresSameThreadWriter(t *testing.T) {
	c := trace.NewCollector("t")
	emit := func(r trace.Rec) int { c.Emit(r); return c.Len() - 1 }
	w := emit(trace.Rec{Node: "n", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KMemWrite, Obj: "n/x", StaticID: 1})
	emit(trace.Rec{Node: "n", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KMemRead, Obj: "n/x", StaticID: 2, WriterSeq: uint64(w + 1)})
	emit(trace.Rec{Node: "n", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KLoopExit, Op: 9, StaticID: 9})
	g, err := Build(c.Trace(), Config{LoopReads: map[int32][]int32{9: {2}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.PullPairs) != 0 {
		t.Fatalf("same-thread writer must not form a pull pair: %+v", g.PullPairs)
	}
}

func TestAblationEventFalsePositive(t *testing.T) {
	// With event records ignored, the Eenq edge vanishes: enqueuer's write
	// and handler's read become concurrent (a false positive).
	c := trace.NewCollector("t")
	c.SetQueueInfo("n/q", 1)
	emit := func(r trace.Rec) int { c.Emit(r); return c.Len() - 1 }
	w := emit(trace.Rec{Node: "n", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KMemWrite, Obj: "n/x", StaticID: 1})
	emit(trace.Rec{Node: "n", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KEventCreate, Op: 100, Queue: "n/q", StaticID: 2})
	emit(trace.Rec{Node: "n", Thread: 2, Ctx: 10, CtxKind: trace.CtxEvent, Kind: trace.KEventBegin, Op: 100, Queue: "n/q", StaticID: -1})
	r := emit(trace.Rec{Node: "n", Thread: 2, Ctx: 10, CtxKind: trace.CtxEvent, Kind: trace.KMemRead, Obj: "n/x", StaticID: 3})
	tr := c.Trace()
	full, err := Build(tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !full.HappensBefore(w, r) {
		t.Fatal("full model must order enqueue-write before handler read")
	}
	abl, err := Build(tr, Config{DisableEvent: true})
	if err != nil {
		t.Fatal(err)
	}
	if !abl.Concurrent(w, r) {
		t.Fatal("ablated model should lose the Eenq ordering (false positive)")
	}
}

func TestAblationEventFalseNegative(t *testing.T) {
	// Two handlers on the same thread of a multi-consumer queue are
	// concurrent under the full model; ignoring event records collapses
	// them into thread order (false negative).
	c := trace.NewCollector("t")
	c.SetQueueInfo("n/q", 3)
	emit := func(r trace.Rec) int { c.Emit(r); return c.Len() - 1 }
	emit(trace.Rec{Node: "n", Thread: 2, Ctx: 10, CtxKind: trace.CtxEvent, Kind: trace.KEventBegin, Op: 100, Queue: "n/q", StaticID: -1})
	a := emit(trace.Rec{Node: "n", Thread: 2, Ctx: 10, CtxKind: trace.CtxEvent, Kind: trace.KMemWrite, Obj: "n/x", StaticID: 1})
	emit(trace.Rec{Node: "n", Thread: 2, Ctx: 10, CtxKind: trace.CtxEvent, Kind: trace.KEventEnd, Op: 100, Queue: "n/q", StaticID: -1})
	emit(trace.Rec{Node: "n", Thread: 2, Ctx: 11, CtxKind: trace.CtxEvent, Kind: trace.KEventBegin, Op: 101, Queue: "n/q", StaticID: -1})
	b2 := emit(trace.Rec{Node: "n", Thread: 2, Ctx: 11, CtxKind: trace.CtxEvent, Kind: trace.KMemRead, Obj: "n/x", StaticID: 2})
	tr := c.Trace()
	full, err := Build(tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Concurrent(a, b2) {
		t.Fatal("multi-consumer handlers should be concurrent in full model")
	}
	abl, err := Build(tr, Config{DisableEvent: true})
	if err != nil {
		t.Fatal(err)
	}
	if !abl.HappensBefore(a, b2) {
		t.Fatal("ablated model should falsely order same-thread handlers (false negative)")
	}
}

func TestMemBudgetOOM(t *testing.T) {
	b := newTB()
	for i := 0; i < 100; i++ {
		b.mem("n", 1, 1, trace.CtxRegular, trace.KMemWrite, "n/x", int32(i))
	}
	_, err := Build(b.c.Trace(), Config{MemBudget: 100})
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
	g, err := Build(b.c.Trace(), Config{MemBudget: 1 << 20})
	if err != nil {
		t.Fatalf("generous budget failed: %v", err)
	}
	if g.MemBytes() == 0 {
		t.Fatal("MemBytes not reported")
	}
}

func TestHappensBeforeBounds(t *testing.T) {
	b := newTB()
	a := b.mem("n", 1, 1, trace.CtxRegular, trace.KMemWrite, "n/x", 1)
	g := b.build(t, Config{})
	if g.HappensBefore(a, a) {
		t.Fatal("irreflexivity violated")
	}
	if g.HappensBefore(-1, a) || g.HappensBefore(a, 99) {
		t.Fatal("out-of-range indices must be false")
	}
}

// randomTrace builds a random but causally consistent trace: several
// contexts emitting records, with random fork/join, RPC, socket, and event
// pairings always pointing forward in time.
func randomTrace(rng *rand.Rand, n int) *trace.Trace {
	c := trace.NewCollector("rand")
	type pending struct {
		kind trace.Kind
		op   uint64
	}
	var open []pending
	nextOp := uint64(1)
	nctx := rng.Intn(6) + 2
	for i := 0; i < n; i++ {
		th := int32(rng.Intn(nctx) + 1)
		r := trace.Rec{Node: "n", Thread: th, Ctx: th, CtxKind: trace.CtxRegular, StaticID: int32(i)}
		switch rng.Intn(6) {
		case 0:
			r.Kind = trace.KMemWrite
			r.Obj = "n/x"
		case 1:
			r.Kind = trace.KMemRead
			r.Obj = "n/x"
		case 2: // open a causal pair
			src := []trace.Kind{trace.KThreadCreate, trace.KRPCCreate, trace.KSockSend, trace.KZKUpdate}[rng.Intn(4)]
			r.Kind = src
			r.Op = nextOp
			open = append(open, pending{src, nextOp})
			nextOp++
		case 3: // close a causal pair on a random context
			if len(open) == 0 {
				r.Kind = trace.KMemRead
				r.Obj = "n/y"
				break
			}
			p := open[rng.Intn(len(open))]
			switch p.kind {
			case trace.KThreadCreate:
				r.Kind = trace.KThreadBegin
			case trace.KRPCCreate:
				r.Kind = trace.KRPCBegin
			case trace.KSockSend:
				r.Kind = trace.KSockRecv
			case trace.KZKUpdate:
				r.Kind = trace.KZKPushed
			}
			r.Op = p.op
		default:
			r.Kind = trace.KMemRead
			r.Obj = "n/z"
		}
		c.Emit(r)
	}
	return c.Trace()
}

// Property: point queries agree exactly with naive vector-clock
// comparability (§3.2.2's rejected representation of the same HB relation).
func TestReachabilityMatchesVectorClocks(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, 60)
		g, err := Build(tr, Config{})
		if err != nil {
			t.Fatal(err)
		}
		clocks := vectorClocks(g)
		n := g.N()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				hb := g.HappensBefore(i, j)
				vc := clocks[i].lessEq(clocks[j])
				if hb != vc {
					t.Fatalf("seed %d: disagreement on (%d,%d): index=%v vclock=%v",
						seed, i, j, hb, vc)
				}
			}
		}
	}
}

// Property: HappensBefore is transitive.
func TestHBTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := randomTrace(rng, 80)
	g, err := Build(tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !g.HappensBefore(i, j) {
				continue
			}
			for k := j + 1; k < n; k++ {
				if g.HappensBefore(j, k) && !g.HappensBefore(i, k) {
					t.Fatalf("transitivity violated: %d->%d->%d", i, j, k)
				}
			}
		}
	}
}

func TestPath(t *testing.T) {
	b := newTB()
	w := b.mem("n1", 1, 1, trace.CtxRegular, trace.KMemWrite, "n1/x", 1)
	cr := b.op("n1", 1, 1, trace.CtxRegular, trace.KThreadCreate, 7)
	bg := b.op("n1", 2, 2, trace.CtxRegular, trace.KThreadBegin, 7)
	r := b.mem("n1", 2, 2, trace.CtxRegular, trace.KMemRead, "n1/x", 2)
	other := b.mem("n2", 3, 3, trace.CtxRegular, trace.KMemWrite, "n2/y", 3)
	g := b.build(t, Config{})
	path := g.Path(w, r)
	if len(path) < 2 || path[0] != w || path[len(path)-1] != r {
		t.Fatalf("Path = %v", path)
	}
	// Every step of the chain must itself be an HB edge or ordered.
	for k := 0; k+1 < len(path); k++ {
		if !g.HappensBefore(path[k], path[k+1]) {
			t.Fatalf("path step %d not ordered: %v", k, path)
		}
	}
	if g.Path(r, w) != nil || g.Path(w, other) != nil {
		t.Fatal("Path found for non-ordered vertices")
	}
	_ = cr
	_ = bg
}

// TestPathShortestFirstInEdge pins Path's choice on a hand-built graph
// with three routes from 1 to 6 and a shortcut into 6 from outside 1's
// forward cone: the route through 3 is first among 6's in-edges but one
// step longer, and the routes through 4 and 5 tie, so the in-edge listed
// first wins.
//
//	1 → 2 → 3 → 6
//	1 → 4 → 6
//	1 → 5 → 6
//	0 → 6
func TestPathShortestFirstInEdge(t *testing.T) {
	g := &Graph{Tr: &trace.Trace{Recs: make([]trace.Rec, 7)}, in: make([][]int32, 7)}
	for _, e := range [][2]int{{5, 6}, {4, 6}, {3, 6}, {0, 6}, {2, 3}, {1, 2}, {1, 4}, {1, 5}} {
		if !g.addEdge(e[0], e[1]) {
			t.Fatalf("edge %v refused", e)
		}
	}
	g.dedupEdges()
	if got := g.Path(1, 6); !slices.Equal(got, []int{1, 4, 6}) {
		t.Fatalf("Path(1,6) = %v, want [1 4 6]", got)
	}
	if got := g.Path(1, 3); !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("Path(1,3) = %v, want [1 2 3]", got)
	}
	if got := g.Path(0, 6); !slices.Equal(got, []int{0, 6}) {
		t.Fatalf("Path(0,6) = %v, want [0 6]", got)
	}
	for _, q := range [][2]int{{6, 1}, {1, 1}, {2, 4}, {0, 1}, {-1, 6}, {1, 7}} {
		if p := g.Path(q[0], q[1]); p != nil {
			t.Fatalf("Path(%d,%d) = %v for an unordered pair", q[0], q[1], p)
		}
	}
}

// Concurrent reports whether neither record happens before the other.
func (g *Graph) Concurrent(i, j int) bool {
	return i != j && !g.HappensBefore(i, j) && !g.HappensBefore(j, i)
}
