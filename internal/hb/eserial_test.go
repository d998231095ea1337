package hb

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"dcatch/internal/trace"
)

// closureFixedPoint is Rule-Eserial driven by point queries on a bit-array
// closure, rebuilt after every round that adds edges — the fixed point as
// the paper states it, kept as the oracle for the sweep-driven eserial.
func closureFixedPoint(g *Graph) {
	if g.cfg.DisableEvent {
		return
	}
	worklist := g.eserialWorklist()
	for {
		g.Rounds++
		bits := newBitReach(g)
		added := 0
		for _, evs := range worklist {
			for i, e1 := range evs {
				for j, e2 := range evs {
					if i == j {
						continue
					}
					if bits.hb(e1.create, e2.create) && !bits.hb(e1.end, e2.begin) {
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

// buildByClosure is Build with the oracle fixed point in place of eserial.
func buildByClosure(t *testing.T, tr *trace.Trace, cfg Config) *Graph {
	t.Helper()
	g := &Graph{Tr: tr, cfg: cfg}
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
// configuration, on a queue cascade that needs several rounds, and on
// out-of-order event records, it derives the oracle's graph exactly.
func TestEserialSweepMatchesClosureOracle(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		tr := randomMTEP(rand.New(rand.NewSource(800+seed)), 300)
		for ci, cfg := range table9Configs {
			checkEserialOracle(t, fmt.Sprintf("seed %d cfg %d", seed, ci), tr, cfg)
		}
	}
	g := checkEserialOracle(t, "cascade", cascadeTrace(4), Config{})
	if g.Rounds < 3 {
		t.Fatalf("cascade: %d rounds, want at least 3", g.Rounds)
	}
	g = checkEserialOracle(t, "out-of-order", outOfOrderTrace(), Config{})
	if !g.HappensBefore(2, 3) {
		t.Fatal("out-of-order: test geometry broken, handlers not serialized")
	}
}

// TestSerialSweepBitsMatchHappensBefore checks one sweep's bits directly,
// diagonal included: before and ended must hold exactly the answers of the
// two happens-before questions the closure-driven fixed point asks.
func TestSerialSweepBitsMatchHappensBefore(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		tr := randomMTEP(rand.New(rand.NewSource(850+seed)), 300)
		g, err := Build(tr, Config{})
		if err != nil {
			t.Fatal(err)
		}
		worklist := g.eserialWorklist()
		if len(worklist) == 0 {
			t.Fatalf("seed %d: no serial queue to check", seed)
		}
		bits := newBitReach(g)
		sw := g.newSerialSweep(worklist)
		sw.run()
		for q, evs := range worklist {
			k := len(evs)
			for i, e1 := range evs {
				for j, e2 := range evs {
					if got, want := sw.before[q][i*k+j], bits.hb(e1.create, e2.create); got != want {
						t.Fatalf("seed %d queue %d: before(%d,%d) = %v, oracle %v", seed, q, i, j, got, want)
					}
					if got, want := sw.ended[q][i*k+j], bits.hb(e1.end, e2.begin); got != want {
						t.Fatalf("seed %d queue %d: ended(%d,%d) = %v, oracle %v", seed, q, i, j, got, want)
					}
				}
			}
		}
	}
}

// TestConcurrentPointQueries runs point queries from 8 goroutines on one
// graph (the race detector's subject in CI): the graph keeps no query
// state, so every answer matches the oracle without a lock.
func TestConcurrentPointQueries(t *testing.T) {
	tr := randomMTEP(rand.New(rand.NewSource(900)), 300)
	g, err := Build(tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bits := newBitReach(g)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < g.N(); i += 8 {
				for j := i + 1; j < g.N(); j += 5 {
					if g.HappensBefore(i, j) != bits.hb(i, j) {
						t.Errorf("HappensBefore(%d,%d) disagrees with the oracle", i, j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestMemBytesIsMaterializedFootprint checks what MemBytes admits under each
// model: under the chain model exactly what a V×C clock matrix plus the
// decomposition would hold, under the dense model the paper's bit arrays.
// Neither is allocated.
func TestMemBytesIsMaterializedFootprint(t *testing.T) {
	tr := randomMTEP(rand.New(rand.NewSource(901)), 257)
	for _, be := range []Backend{BackendDense, BackendChain} {
		g, err := Build(tr, Config{ReachBackend: be})
		if err != nil {
			t.Fatal(err)
		}
		dec := g.ChainDecomposition()
		want := int64(g.N()*dec.Chains()+len(dec.Of)+len(dec.Pos)+len(dec.Len)) * 4
		if be == BackendDense {
			want = DenseReachBytes(g.N())
		}
		if got := g.MemBytes(); got != want || got == 0 {
			t.Fatalf("%v: MemBytes %d, want %d", be, got, want)
		}
	}
}

// TestDenseAdmissionDoesNotBoundIndex pins the gap between the two
// admission models: on a graph with C > V/32, a budget of exactly V²/8
// admits it under the dense model, while the chain model, which charges
// 4·V·C bytes of clock matrix, refuses the same budget.
func TestDenseAdmissionDoesNotBoundIndex(t *testing.T) {
	tr := randomMTEP(rand.New(rand.NewSource(902)), 257)
	budget := DenseReachBytes(len(tr.Recs))
	g, err := Build(tr, Config{MemBudget: budget})
	if err != nil {
		t.Fatalf("dense admission at V²/8: %v", err)
	}
	n, c := g.N(), g.ChainDecomposition().Chains()
	if c <= n/32 {
		t.Fatalf("fixture has C = %d ≤ V/32 = %d; pick one where the clock matrix outgrows V²/8", c, n/32)
	}
	if g.MemBytes() != budget {
		t.Fatalf("MemBytes %d, want the admitted %d", g.MemBytes(), budget)
	}
	if _, err := Build(tr, Config{MemBudget: budget, ReachBackend: BackendChain}); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("chain admission at V²/8 = %d: err %v, want ErrOutOfMemory", budget, err)
	}
}
