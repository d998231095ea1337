package hb

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"dcatch/internal/trace"
)

// randomMTEP builds a random causally consistent trace exercising every rule
// family: Preg on regular threads, Pnreg via per-instance RPC/message/watch
// handler contexts, Tfork/Tjoin, Mrpc, Msoc, Mpush, and Eenq/Eserial over a
// mix of single- and multi-consumer event queues. Used by the differential
// tests to cross-check the dense and chain reachability backends.
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

// diffBackends asserts the two graphs agree on every HappensBefore and
// Concurrent query, and on the derived edge/round counts.
func diffBackends(t *testing.T, label string, dense, chain *Graph) {
	t.Helper()
	if dense.Edges() != chain.Edges() {
		t.Fatalf("%s: edge counts diverged: dense %d vs chain %d", label, dense.Edges(), chain.Edges())
	}
	if dense.Rounds != chain.Rounds {
		t.Fatalf("%s: Eserial rounds diverged: dense %d vs chain %d", label, dense.Rounds, chain.Rounds)
	}
	n := dense.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dh, ch := dense.HappensBefore(i, j), chain.HappensBefore(i, j)
			if dh != ch {
				t.Fatalf("%s: HappensBefore(%d,%d): dense %v vs chain %v", label, i, j, dh, ch)
			}
			if dense.Concurrent(i, j) != chain.Concurrent(i, j) {
				t.Fatalf("%s: Concurrent(%d,%d) diverged", label, i, j)
			}
			if dense.ConcurrentOrdered(i, j) != chain.ConcurrentOrdered(i, j) {
				t.Fatalf("%s: ConcurrentOrdered(%d,%d) diverged", label, i, j)
			}
		}
	}
}

// TestChainMatchesDenseRandom is the core differential property: on random
// full-MTEP traces the chain backend answers every reachability query
// exactly like the dense bit arrays.
func TestChainMatchesDenseRandom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomMTEP(rng, 300)
		dense, err := Build(tr, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if dense.Backend() != BackendDense {
			t.Fatalf("default backend is %v, want dense", dense.Backend())
		}
		chain, err := Build(tr, Config{ReachBackend: BackendChain})
		if err != nil {
			t.Fatal(err)
		}
		if chain.Backend() != BackendChain || chain.Chains() == 0 {
			t.Fatalf("chain backend not engaged: %v, %d chains", chain.Backend(), chain.Chains())
		}
		diffBackends(t, fmt.Sprintf("seed %d", seed), dense, chain)
	}
}

// TestChainMatchesDenseAblations repeats the differential check under every
// Table 9 rule ablation (which also degrades Pnreg contexts, reshaping the
// chain decomposition itself).
func TestChainMatchesDenseAblations(t *testing.T) {
	cfgs := []Config{
		{DisableEvent: true},
		{DisableRPC: true},
		{DisableSocket: true},
		{DisablePush: true},
		{DisableEvent: true, DisableRPC: true, DisableSocket: true, DisablePush: true},
	}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		tr := randomMTEP(rng, 200)
		for ci, cfg := range cfgs {
			dense, err := Build(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ccfg := cfg
			ccfg.ReachBackend = BackendChain
			chain, err := Build(tr, ccfg)
			if err != nil {
				t.Fatal(err)
			}
			diffBackends(t, fmt.Sprintf("seed %d cfg %d", seed, ci), dense, chain)
		}
	}
}

// TestChainMatchesDensePull checks Rule-Mpull edges land identically in both
// backends, including the discovered pull-pair list.
func TestChainMatchesDensePull(t *testing.T) {
	c := trace.NewCollector("t")
	emit := func(r trace.Rec) int { c.Emit(r); return c.Len() - 1 }
	w := emit(trace.Rec{Node: "srv", Thread: 2, Ctx: 5, CtxKind: trace.CtxEvent, Kind: trace.KMemWrite, Obj: "srv/jMap", StaticID: 20})
	emit(trace.Rec{Node: "srv", Thread: 3, Ctx: 6, CtxKind: trace.CtxRPC, Kind: trace.KMemRead, Obj: "srv/jMap", StaticID: 21, WriterSeq: uint64(w + 1)})
	emit(trace.Rec{Node: "nm", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KLoopExit, Op: 40, StaticID: 40})
	emit(trace.Rec{Node: "nm", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KMemRead, Obj: "nm/z", StaticID: 41})
	tr := c.Trace()
	cfg := Config{LoopReads: map[int32][]int32{40: {21}}}
	dense, err := Build(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ReachBackend = BackendChain
	chain, err := Build(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain.PullPairs) != len(dense.PullPairs) {
		t.Fatalf("pull pairs diverged: %v vs %v", dense.PullPairs, chain.PullPairs)
	}
	diffBackends(t, "pull", dense, chain)
}

// twoThreadTrace builds n records alternating between two regular threads —
// two chains, so the chain index is far smaller than the dense bit matrix.
func twoThreadTrace(n int) *trace.Trace {
	c := trace.NewCollector("t")
	for i := 0; i < n; i++ {
		th := int32(1 + i%2)
		c.Emit(trace.Rec{Node: "n", Thread: th, Ctx: th, CtxKind: trace.CtxRegular,
			Kind: trace.KMemWrite, Obj: "n/x", StaticID: int32(i)})
	}
	return c.Trace()
}

// TestChainMemBudgetParity pins the MemBudget error paths: both backends
// refuse a budget neither fits (wrapping ErrOutOfMemory), the chain backend
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

	// The budget-constrained graphs must still agree with unconstrained dense.
	dense, err := Build(tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	diffBackends(t, "mid-budget chain", dense, chain)
	diffBackends(t, "mid-budget auto", dense, auto)

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

// TestChainCommonAncestorsAndPath checks the explain-facing queries route
// through the chain index identically.
func TestChainCommonAncestorsAndPath(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	tr := randomMTEP(rng, 150)
	dense, err := Build(tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := Build(tr, Config{ReachBackend: BackendChain})
	if err != nil {
		t.Fatal(err)
	}
	n := dense.N()
	for i := 0; i < n; i += 7 {
		for j := i + 1; j < n; j += 13 {
			da := dense.CommonAncestors(i, j, 3)
			ca := chain.CommonAncestors(i, j, 3)
			if len(da) != len(ca) {
				t.Fatalf("CommonAncestors(%d,%d) diverged: %v vs %v", i, j, da, ca)
			}
			for k := range da {
				if da[k] != ca[k] {
					t.Fatalf("CommonAncestors(%d,%d) diverged: %v vs %v", i, j, da, ca)
				}
			}
			dp, cp := dense.Path(i, j), chain.Path(i, j)
			if (dp == nil) != (cp == nil) {
				t.Fatalf("Path(%d,%d) existence diverged", i, j)
			}
		}
	}
}

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
