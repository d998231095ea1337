package hb

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dcatch/internal/trace"
)

// randomMTEP builds a random causally consistent trace exercising every rule
// family: Preg on regular threads, Pnreg via per-instance RPC/message/watch
// handler contexts, Tfork/Tjoin, Mrpc, Msoc, Mpush, and Eenq/Eserial over a
// mix of single- and multi-consumer event queues. Used by the differential
// tests to cross-check the cones and sweeps against the oracles.
func randomMTEP(rng *rand.Rand, n int) *trace.Trace {
	c := trace.NewCollector("mtep")
	c.SetQueueInfo("n/q0", 1)
	c.SetQueueInfo("n/q1", 1)
	c.SetQueueInfo("n/qm", 3)
	queues := []string{"n/q0", "n/q1", "n/qm"}

	type pending struct {
		kind trace.Kind
		op   uint64
	}
	var open []pending
	evPending := make([][]uint64, len(queues))
	evRunning := make([]uint64, len(queues))
	evCtx := make([]int32, len(queues))
	nextOp := uint64(1)
	nextCtx := int32(1000)
	nthreads := 3 + rng.Intn(3)

	for i := 0; i < n; i++ {
		th := int32(1 + rng.Intn(nthreads))
		r := trace.Rec{
			Node: "n", Thread: th, Ctx: th, CtxKind: trace.CtxRegular,
			StaticID: int32(rng.Intn(30)), Stack: []int32{int32(rng.Intn(5))},
		}
		switch rng.Intn(12) {
		case 0, 1, 2:
			r.Kind = trace.KMemWrite
			r.Obj = fmt.Sprintf("n/o%d", rng.Intn(6))
		case 3, 4, 5:
			r.Kind = trace.KMemRead
			r.Obj = fmt.Sprintf("n/o%d", rng.Intn(6))
		case 6: // open a causal pair
			src := []trace.Kind{trace.KThreadCreate, trace.KRPCCreate, trace.KSockSend, trace.KZKUpdate}[rng.Intn(4)]
			r.Kind = src
			r.Op = nextOp
			open = append(open, pending{src, nextOp})
			nextOp++
		case 7: // close a pending pair, handler kinds in a fresh context
			if len(open) == 0 {
				r.Kind = trace.KMemRead
				r.Obj = "n/oz"
				break
			}
			k := rng.Intn(len(open))
			p := open[k]
			open = append(open[:k], open[k+1:]...)
			r.Op = p.op
			switch p.kind {
			case trace.KThreadCreate:
				r.Kind = trace.KThreadBegin
			case trace.KRPCCreate:
				r.Kind = trace.KRPCBegin
				r.Ctx, r.CtxKind = nextCtx, trace.CtxRPC
				nextCtx++
			case trace.KSockSend:
				r.Kind = trace.KSockRecv
				r.Ctx, r.CtxKind = nextCtx, trace.CtxMsg
				nextCtx++
			case trace.KZKUpdate:
				r.Kind = trace.KZKPushed
				r.Ctx, r.CtxKind = nextCtx, trace.CtxWatch
				nextCtx++
			}
		default: // event-queue activity
			q := rng.Intn(len(queues))
			switch {
			case evRunning[q] != 0:
				r.Thread = int32(10 + q)
				r.Ctx, r.CtxKind = evCtx[q], trace.CtxEvent
				r.Kind = trace.KEventEnd
				r.Op = evRunning[q]
				r.Queue = queues[q]
				evRunning[q] = 0
			case len(evPending[q]) > 0:
				op := evPending[q][0]
				evPending[q] = evPending[q][1:]
				r.Thread = int32(10 + q)
				r.Ctx, r.CtxKind = nextCtx, trace.CtxEvent
				r.Kind = trace.KEventBegin
				r.Op = op
				r.Queue = queues[q]
				evRunning[q] = op
				evCtx[q] = nextCtx
				nextCtx++
			default:
				r.Kind = trace.KEventCreate
				r.Op = nextOp
				r.Queue = queues[q]
				evPending[q] = append(evPending[q], nextOp)
				nextOp++
			}
		}
		c.Emit(r)
	}
	return c.Trace()
}

// pullTrace is a Rule-Mpull geometry: an RPC handler's poll read sees an
// event handler's write, and the loop exit on another node follows it
// (LoopReads {40: {21}}).
func pullTrace() *trace.Trace {
	c := trace.NewCollector("t")
	c.Emit(trace.Rec{Node: "srv", Thread: 2, Ctx: 5, CtxKind: trace.CtxEvent, Kind: trace.KMemWrite, Obj: "srv/jMap", StaticID: 20})
	c.Emit(trace.Rec{Node: "srv", Thread: 3, Ctx: 6, CtxKind: trace.CtxRPC, Kind: trace.KMemRead, Obj: "srv/jMap", StaticID: 21, WriterSeq: 1})
	c.Emit(trace.Rec{Node: "nm", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KLoopExit, Op: 40, StaticID: 40})
	c.Emit(trace.Rec{Node: "nm", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KMemRead, Obj: "nm/z", StaticID: 41})
	return c.Trace()
}

// TestChainMatchesDenseRandom is the point queries' core differential
// property: on random full-MTEP traces every cone answers exactly like a
// chain-clock index, the paper's dense bit arrays and naive vector clocks.
func TestChainMatchesDenseRandom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g, err := Build(randomMTEP(rand.New(rand.NewSource(seed)), 300), Config{})
		if err != nil {
			t.Fatal(err)
		}
		checkQueries(t, fmt.Sprintf("seed %d", seed), g)
	}
}

// TestChainMatchesDenseAblations repeats the check, every pair, under the
// six Table 9 rule configurations (ablations also degrade Pnreg contexts,
// reshaping the chain decomposition the index is built on).
func TestChainMatchesDenseAblations(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		tr := randomMTEP(rand.New(rand.NewSource(100+seed)), 200)
		for ci, cfg := range table9Configs {
			g, err := Build(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkQueries(t, fmt.Sprintf("seed %d cfg %d", seed, ci), g)
		}
	}
}

// TestChainMatchesDensePull checks Rule-Mpull edges reach the cones.
func TestChainMatchesDensePull(t *testing.T) {
	g, err := Build(pullTrace(), Config{LoopReads: map[int32][]int32{40: {21}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.PullPairs) != 1 || !g.HappensBefore(0, 2) {
		t.Fatalf("test geometry broken: pull pairs %v", g.PullPairs)
	}
	checkQueries(t, "pull", g)
}

// twoThreadTrace builds n records alternating between two regular threads —
// two chains, so the chain model charges far less than the dense bit matrix.
func twoThreadTrace(n int) *trace.Trace {
	c := trace.NewCollector("t")
	for i := 0; i < n; i++ {
		th := int32(1 + i%2)
		c.Emit(trace.Rec{Node: "n", Thread: th, Ctx: th, CtxKind: trace.CtxRegular,
			Kind: trace.KMemWrite, Obj: "n/x", StaticID: int32(i)})
	}
	return c.Trace()
}

// TestChainMemBudgetParity pins the MemBudget error paths: both models
// refuse a budget neither fits (wrapping ErrOutOfMemory), the chain model
// fits budgets the dense one cannot, and auto resolves accordingly.
func TestChainMemBudgetParity(t *testing.T) {
	tr := twoThreadTrace(200)
	denseNeed := DenseReachBytes(200) // 6400
	chainNeed := int64(4*200*2 + 4*(2*200+2))

	// A budget below both footprints: ErrOutOfMemory from every backend.
	for _, be := range []Backend{BackendDense, BackendChain, BackendAuto} {
		_, err := Build(tr, Config{MemBudget: 100, ReachBackend: be})
		if !errors.Is(err, ErrOutOfMemory) {
			t.Fatalf("backend %v with budget 100: want ErrOutOfMemory, got %v", be, err)
		}
	}

	// A budget between the chain and dense footprints.
	mid := (chainNeed + denseNeed) / 2
	if mid <= chainNeed || mid >= denseNeed {
		t.Fatalf("test geometry broken: chain %d, mid %d, dense %d", chainNeed, mid, denseNeed)
	}
	if _, err := Build(tr, Config{MemBudget: mid}); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("dense under mid budget: want ErrOutOfMemory, got %v", err)
	}
	chain, err := Build(tr, Config{MemBudget: mid, ReachBackend: BackendChain})
	if err != nil {
		t.Fatalf("chain under mid budget: %v", err)
	}
	auto, err := Build(tr, Config{MemBudget: mid, ReachBackend: BackendAuto})
	if err != nil {
		t.Fatalf("auto under mid budget: %v", err)
	}
	if auto.Backend() != BackendChain {
		t.Fatalf("auto under mid budget resolved to %v, want chain", auto.Backend())
	}

	// The budget-constrained graphs still answer every query exactly.
	checkQueries(t, "mid-budget chain", chain)
	checkQueries(t, "mid-budget auto", auto)

	// Auto with room for dense (or no budget at all) stays dense.
	for _, budget := range []int64{0, denseNeed * 2} {
		g, err := Build(tr, Config{MemBudget: budget, ReachBackend: BackendAuto})
		if err != nil {
			t.Fatal(err)
		}
		if g.Backend() != BackendDense {
			t.Fatalf("auto with budget %d resolved to %v, want dense", budget, g.Backend())
		}
	}
}

func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backend
	}{{"dense", BackendDense}, {"chain", BackendChain}, {"auto", BackendAuto}} {
		got, err := ParseBackend(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseBackend(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("Backend(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseBackend("sparse"); err == nil {
		t.Fatal("ParseBackend accepted an unknown backend")
	}
}

// TestChainCommonAncestorsAndPath checks the explain-facing queries against
// the bit-array oracle: CommonAncestors lists the nearest common ancestors
// in descending order, and Path exists exactly when the pair is ordered and
// walks in-edges.
func TestChainCommonAncestorsAndPath(t *testing.T) {
	tr := randomMTEP(rand.New(rand.NewSource(300)), 150)
	g, err := Build(tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	bits := newBitReach(g)
	n := g.N()
	for i := 0; i < n; i += 7 {
		for j := i + 1; j < n; j += 13 {
			var want []int
			for k := i - 1; k >= 0 && len(want) < 3; k-- {
				if bits.hb(k, i) && bits.hb(k, j) {
					want = append(want, k)
				}
			}
			if got := g.CommonAncestors(j, i, 3); !slices.Equal(got, want) {
				t.Fatalf("CommonAncestors(%d,%d) = %v, oracle %v", j, i, got, want)
			}
			p := g.Path(i, j)
			if (p != nil) != bits.hb(i, j) {
				t.Fatalf("Path(%d,%d) = %v, oracle ordered %v", i, j, p, bits.hb(i, j))
			}
			for k := 0; k+1 < len(p); k++ {
				if !slices.Contains(g.in[p[k+1]], int32(p[k])) {
					t.Fatalf("Path(%d,%d) = %v: step %d is not an edge", i, j, p, k)
				}
			}
		}
	}
}

// TestConcurrentOrderedAgrees cross-checks a chain-clock index's unchecked
// probe against the cones' Concurrent over every valid ordered pair.
func TestConcurrentOrderedAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := randomTrace(rng, 120)
	g, err := Build(tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ix := newChainIndex(g)
	for i := 0; i < g.N(); i++ {
		for j := i + 1; j < g.N(); j++ {
			if g.Concurrent(i, j) != ix.concurrentOrdered(i, j) {
				t.Fatalf("disagreement on (%d,%d)", i, j)
			}
		}
	}
}
