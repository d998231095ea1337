package hb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"dcatch/internal/obs"
	"dcatch/internal/trace"
)

// closureFixedPoint is Rule-Eserial driven by point queries on a
// materialized closure, rebuilt after every round that adds edges — the
// fixed point as the paper states it, kept as the oracle for the
// sweep-driven eserial.
func closureFixedPoint(g *Graph) {
	if g.cfg.DisableEvent {
		return
	}
	worklist := g.eserialWorklist()
	for {
		g.Rounds++
		g.closure(nil)
		added := 0
		for _, evs := range worklist {
			for i, e1 := range evs {
				for j, e2 := range evs {
					if i == j {
						continue
					}
					if g.closureHB(e1.create, e2.create) && !g.closureHB(e1.end, e2.begin) {
						if g.addEdge(e1.end, e2.begin) {
							added++
						}
					}
				}
			}
		}
		if added == 0 {
			return
		}
		g.edgeCount += added
	}
}

// closureHB is HappensBefore read straight from the index closure last
// built, bypassing the lazy builder.
func (g *Graph) closureHB(u, v int) bool {
	if u >= v {
		return false
	}
	if g.chain != nil {
		return g.chain.reaches(u, v)
	}
	return g.reach[v].HasUnchecked(u)
}

// buildByClosure is Build with the oracle fixed point in place of eserial.
func buildByClosure(t *testing.T, tr *trace.Trace, cfg Config) *Graph {
	t.Helper()
	g := &Graph{Tr: tr, cfg: cfg, in: make([][]int32, len(tr.Recs))}
	if err := g.resolveBackend(); err != nil {
		t.Fatal(err)
	}
	g.addRules()
	closureFixedPoint(g)
	return g
}

// cascadeTrace chains depth single-consumer queues so that each queue's
// Eserial edge only becomes derivable after the previous queue's: both
// events of queue d+1 are created inside the handlers of queue d's two
// events, whose order is exactly queue d's Eserial edge. The fixed point
// takes depth+1 rounds.
func cascadeTrace(depth int) *trace.Trace {
	c := trace.NewCollector("cascade")
	q := func(d int) string { return fmt.Sprintf("n/q%d", d) }
	for d := 0; d < depth; d++ {
		c.SetQueueInfo(q(d), 1)
	}
	op := func(d, e int) uint64 { return uint64(100*d + e) }
	emit := func(th, ctx int32, ck trace.CtxKind, kind trace.Kind, d, e int) {
		c.Emit(trace.Rec{Node: "n", Thread: th, Ctx: ctx, CtxKind: ck, Kind: kind, Op: op(d, e), Queue: q(d), StaticID: -1})
	}
	emit(1, 1, trace.CtxRegular, trace.KEventCreate, 0, 1)
	emit(1, 1, trace.CtxRegular, trace.KEventCreate, 0, 2)
	for d := 0; d < depth; d++ {
		th := int32(10 + d)
		for e := 1; e <= 2; e++ {
			ctx := int32(100*(d+1) + e)
			emit(th, ctx, trace.CtxEvent, trace.KEventBegin, d, e)
			if d+1 < depth {
				emit(th, ctx, trace.CtxEvent, trace.KEventCreate, d+1, e)
			}
			emit(th, ctx, trace.CtxEvent, trace.KEventEnd, d, e)
		}
	}
	return c.Trace()
}

// outOfOrderTrace records the second event's handler before its creation —
// a consumer's records reaching the collector ahead of the producer's. The
// Eenq edge is inverted and dropped, yet Rule-Eserial still orders the two
// handlers: the creations are Preg-ordered and End(e1) precedes Begin(e2).
// A round must therefore ask about Begin(e2) before Create(e2) is swept.
func outOfOrderTrace() *trace.Trace {
	c := trace.NewCollector("out-of-order")
	c.SetQueueInfo("n/q", 1)
	emit := func(th, ctx int32, ck trace.CtxKind, kind trace.Kind, op uint64) {
		c.Emit(trace.Rec{Node: "n", Thread: th, Ctx: ctx, CtxKind: ck, Kind: kind, Op: op, Queue: "n/q", StaticID: -1})
	}
	emit(1, 1, trace.CtxRegular, trace.KEventCreate, 1)
	emit(9, 100, trace.CtxEvent, trace.KEventBegin, 1)
	emit(9, 100, trace.CtxEvent, trace.KEventEnd, 1)
	emit(9, 101, trace.CtxEvent, trace.KEventBegin, 2)
	emit(9, 101, trace.CtxEvent, trace.KEventEnd, 2)
	emit(1, 1, trace.CtxRegular, trace.KEventCreate, 2)
	return c.Trace()
}

// table9Configs are the rule configurations of the Table 9 ablation: the
// full model, each family ignored, and all four ignored.
var table9Configs = []Config{
	{},
	{DisableEvent: true},
	{DisableRPC: true},
	{DisableSocket: true},
	{DisablePush: true},
	{DisableEvent: true, DisableRPC: true, DisableSocket: true, DisablePush: true},
}

// checkEserialOracle asserts Build's sweep-driven Rule-Eserial derives
// exactly the closure-driven oracle's graph: same adjacency lists in the same
// order, edge count and round count. A sweep that misses an existing edge
// re-adds it every round and never converges, so Build runs under a deadline.
func checkEserialOracle(t *testing.T, label string, tr *trace.Trace, cfg Config) *Graph {
	t.Helper()
	type built struct {
		g   *Graph
		err error
	}
	done := make(chan built, 1)
	go func() {
		g, err := Build(tr, cfg)
		done <- built{g, err}
	}()
	var g *Graph
	select {
	case b := <-done:
		if b.err != nil {
			t.Fatal(b.err)
		}
		g = b.g
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: Rule-Eserial did not converge", label)
	}
	want := buildByClosure(t, tr, cfg)
	if g.Rounds != want.Rounds {
		t.Fatalf("%s: %d Eserial rounds, oracle %d", label, g.Rounds, want.Rounds)
	}
	if g.Edges() != want.Edges() {
		t.Fatalf("%s: %d edges, oracle %d", label, g.Edges(), want.Edges())
	}
	if !reflect.DeepEqual(g.in, want.in) {
		for v := range g.in {
			if !reflect.DeepEqual(g.in[v], want.in[v]) {
				t.Fatalf("%s: in[%d] = %v, oracle %v", label, v, g.in[v], want.in[v])
			}
		}
	}
	return g
}

// TestEserialSweepMatchesClosureOracle is the sweep-driven fixed point's
// differential property: on random full-MTEP traces under every Table 9
// configuration and both index backends, on a queue cascade that needs
// several rounds, and on out-of-order event records, it derives the oracle's
// graph exactly.
func TestEserialSweepMatchesClosureOracle(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		tr := randomMTEP(rand.New(rand.NewSource(800+seed)), 300)
		for ci, cfg := range table9Configs {
			for _, be := range []Backend{BackendDense, BackendChain} {
				cfg.ReachBackend = be
				checkEserialOracle(t, fmt.Sprintf("seed %d cfg %d %v", seed, ci, be), tr, cfg)
			}
		}
	}
	for _, be := range []Backend{BackendDense, BackendChain} {
		g := checkEserialOracle(t, fmt.Sprintf("cascade %v", be), cascadeTrace(4), Config{ReachBackend: be})
		if g.Rounds < 3 {
			t.Fatalf("cascade %v: %d rounds, want at least 3", be, g.Rounds)
		}
		g = checkEserialOracle(t, fmt.Sprintf("out-of-order %v", be), outOfOrderTrace(), Config{ReachBackend: be})
		if !g.HappensBefore(2, 3) {
			t.Fatalf("out-of-order %v: test geometry broken, handlers not serialized", be)
		}
	}
}

// TestSerialSweepBitsMatchHappensBefore checks one sweep's bits directly,
// diagonal included: before and ended must hold exactly the answers of the
// two HappensBefore questions the closure-driven fixed point asks.
func TestSerialSweepBitsMatchHappensBefore(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		tr := randomMTEP(rand.New(rand.NewSource(850+seed)), 300)
		for _, be := range []Backend{BackendDense, BackendChain} {
			g, err := Build(tr, Config{ReachBackend: be})
			if err != nil {
				t.Fatal(err)
			}
			worklist := g.eserialWorklist()
			if len(worklist) == 0 {
				t.Fatalf("seed %d: no serial queue to check", seed)
			}
			sw := g.newSerialSweep(worklist)
			sw.run()
			for q, evs := range worklist {
				k := len(evs)
				for i, e1 := range evs {
					for j, e2 := range evs {
						if got, want := sw.before[q].Has(i*k+j), g.HappensBefore(e1.create, e2.create); got != want {
							t.Fatalf("seed %d %v queue %d: before(%d,%d) = %v, HappensBefore %v", seed, be, q, i, j, got, want)
						}
						if got, want := sw.ended[q].Has(i*k+j), g.HappensBefore(e1.end, e2.begin); got != want {
							t.Fatalf("seed %d %v queue %d: ended(%d,%d) = %v, HappensBefore %v", seed, be, q, i, j, got, want)
						}
					}
				}
			}
		}
	}
}

// TestIndexBuiltOnFirstQuery pins the lazy index: Build leaves it unbuilt
// (hb.reach.materialized 0, no hb.closure span), and the first point query
// builds it exactly once even when many goroutines ask at the same time.
func TestIndexBuiltOnFirstQuery(t *testing.T) {
	tr := randomMTEP(rand.New(rand.NewSource(900)), 300)
	for _, be := range []Backend{BackendDense, BackendChain} {
		rec := obs.New()
		sp := rec.Span("test")
		g, err := Build(tr, Config{ReachBackend: be, Obs: sp})
		if err != nil {
			t.Fatal(err)
		}
		if g.reach != nil || g.chain != nil {
			t.Fatalf("%v: Build materialized the index", be)
		}
		ctr := rec.Counters()
		if v, ok := ctr["hb.reach.materialized"]; !ok || v != 0 {
			t.Fatalf("%v: hb.reach.materialized = %d (present %v) after Build, want 0", be, v, ok)
		}
		if _, ok := ctr["hb.reach.bits"]; ok {
			t.Fatalf("%v: hb.reach.bits emitted without an index", be)
		}

		ref := buildByClosure(t, tr, Config{ReachBackend: be})
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < g.N(); i += 8 {
					for j := i + 1; j < g.N(); j += 5 {
						if g.HappensBefore(i, j) != ref.closureHB(i, j) {
							t.Errorf("%v: HappensBefore(%d,%d) disagrees with the oracle", be, i, j)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		sp.End()
		ctr = rec.Counters()
		if ctr["hb.reach.materialized"] != 1 {
			t.Fatalf("%v: hb.reach.materialized = %d after concurrent queries, want 1", be, ctr["hb.reach.materialized"])
		}
		if ctr["hb.reach.bits"] <= 0 {
			t.Fatalf("%v: hb.reach.bits missing once the index exists", be)
		}
		closures := 0
		for _, s := range rec.Spans(0)[0].Children[0].Children {
			if s.Name == "hb.closure" {
				closures++
			}
		}
		if closures != 1 {
			t.Fatalf("%v: %d hb.closure spans, want 1", be, closures)
		}
	}
}

// TestMemBytesIsMaterializedFootprint checks the admitted footprint MemBytes
// reports without an index equals the bytes the index holds once built.
func TestMemBytesIsMaterializedFootprint(t *testing.T) {
	tr := randomMTEP(rand.New(rand.NewSource(901)), 257)
	for _, be := range []Backend{BackendDense, BackendChain} {
		g, err := Build(tr, Config{ReachBackend: be})
		if err != nil {
			t.Fatal(err)
		}
		admitted := g.MemBytes()
		g.HappensBefore(0, 1)
		var held int64
		if g.chain != nil {
			held = int64(len(g.chain.rows)+len(g.chains.chainOf)+len(g.chains.posOf)+len(g.chains.chainLen)) * 4
		}
		for _, s := range g.reach {
			held += int64(s.Bytes())
		}
		if admitted != held || admitted == 0 {
			t.Fatalf("%v: MemBytes %d, index holds %d bytes", be, admitted, held)
		}
	}
}
