package hb

import (
	"math/rand"
	"testing"

	"dcatch/internal/trace"
)

// TestWavefrontClosureMatchesSequential checks the tentpole determinism
// claim at the representation level: the wavefront-scheduled closure yields
// bit-for-bit the same reachability sets, edge count, and Eserial rounds as
// the sequential reference path, across random causally-consistent traces.
func TestWavefrontClosureMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, 400) // >= the parallel dispatch threshold
		seq, err := Build(tr, Config{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Build(tr, Config{Parallelism: 8})
		if err != nil {
			t.Fatal(err)
		}
		if seq.Edges() != par.Edges() {
			t.Fatalf("seed %d: edge counts diverged: %d vs %d", seed, seq.Edges(), par.Edges())
		}
		if seq.Rounds != par.Rounds {
			t.Fatalf("seed %d: rounds diverged: %d vs %d", seed, seq.Rounds, par.Rounds)
		}
		for v := 0; v < seq.N(); v++ {
			if !seq.reach[v].Equal(par.reach[v]) {
				t.Fatalf("seed %d: reach[%d] diverged:\nseq %s\npar %s",
					seed, v, seq.reach[v], par.reach[v])
			}
		}
	}
}

// TestEserialParallelScan checks Rule-Eserial still reaches its fixed point
// under the concurrent queue scan (multiple single-consumer queues).
func TestEserialParallelScan(t *testing.T) {
	c := trace.NewCollector("t")
	for q := 0; q < 3; q++ {
		c.SetQueueInfo(queueN(q), 1)
	}
	// Interleave three queues, each with three chained events (handler of
	// e_k creates e_{k+1}) so the fixed point needs multiple rounds.
	op := uint64(1)
	ctx := int32(100)
	for q := 0; q < 3; q++ {
		base := op
		c.Emit(trace.Rec{Node: "n", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KEventCreate, Op: base, Queue: queueN(q), StaticID: 1})
		for k := 0; k < 3; k++ {
			c.Emit(trace.Rec{Node: "n", Thread: int32(10 + q), Ctx: ctx, CtxKind: trace.CtxEvent, Kind: trace.KEventBegin, Op: base + uint64(k), Queue: queueN(q), StaticID: -1})
			if k < 2 {
				c.Emit(trace.Rec{Node: "n", Thread: int32(10 + q), Ctx: ctx, CtxKind: trace.CtxEvent, Kind: trace.KEventCreate, Op: base + uint64(k) + 1, Queue: queueN(q), StaticID: 2})
			}
			c.Emit(trace.Rec{Node: "n", Thread: int32(10 + q), Ctx: ctx, CtxKind: trace.CtxEvent, Kind: trace.KEventEnd, Op: base + uint64(k), Queue: queueN(q), StaticID: -1})
			ctx++
		}
		op += 3
	}
	tr := c.Trace()
	seq, err := Build(tr, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Build(tr, Config{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Edges() != par.Edges() || seq.Rounds != par.Rounds {
		t.Fatalf("parallel Eserial diverged: edges %d vs %d, rounds %d vs %d",
			seq.Edges(), par.Edges(), seq.Rounds, par.Rounds)
	}
	for v := 0; v < seq.N(); v++ {
		if !seq.reach[v].Equal(par.reach[v]) {
			t.Fatalf("reach[%d] diverged", v)
		}
	}
}

func queueN(q int) string { return map[int]string{0: "n/q0", 1: "n/q1", 2: "n/q2"}[q] }

// TestConcurrentOrderedAgrees cross-checks the unchecked fast path against
// Concurrent over every valid ordered pair.
func TestConcurrentOrderedAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := randomTrace(rng, 120)
	g, err := Build(tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.N(); i++ {
		for j := i + 1; j < g.N(); j++ {
			if g.Concurrent(i, j) != g.ConcurrentOrdered(i, j) {
				t.Fatalf("disagreement on (%d,%d)", i, j)
			}
		}
	}
}
