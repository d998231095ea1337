package hb

import (
	"fmt"
	"math/rand"
	"testing"

	"dcatch/internal/trace"
	"dcatch/internal/vclock"
)

// sweepClocks runs a full chain-clock sweep and returns each vertex's clock
// (cloned — the sweep reuses its storage) plus the sweep stats.
func sweepClocks(g *Graph) (ChainDecomposition, []vclock.ChainClock, SweepStats) {
	dec := g.ChainDecomposition()
	clocks := make([]vclock.ChainClock, g.N())
	st := g.ChainClockSweep(dec, nil, 0, func(v int, c vclock.ChainClock) {
		clocks[v] = c.Clone()
	})
	return dec, clocks, st
}

// checkSweepMatchesReach asserts the sweep's domination test agrees with the
// bit-array oracle on every ordered pair — the exactness property the epoch
// detector and Rule-Eserial's rounds rest on.
func checkSweepMatchesReach(t *testing.T, label string, g *Graph) {
	t.Helper()
	dec, clocks, st := sweepClocks(g)
	bits := newBitReach(g)
	n := g.N()
	for v := 0; v < n; v++ {
		if !clocks[v].Dominates(vclock.MakeEpoch(dec.Of[v], dec.Pos[v])) {
			t.Fatalf("%s: clock of %d does not dominate its own epoch", label, v)
		}
		for u := 0; u < v; u++ {
			got := clocks[v].Dominates(vclock.MakeEpoch(dec.Of[u], dec.Pos[u]))
			want := bits.hb(u, v)
			if got != want {
				t.Fatalf("%s: pair (%d,%d): clock domination %v vs oracle %v",
					label, u, v, got, want)
			}
		}
	}
	if n > 0 && st.Joins+st.FastpathHits == 0 {
		t.Fatalf("%s: sweep stats empty on a %d-vertex graph", label, n)
	}
	if st.ClockBytesPeak < int64(dec.Chains())*4 {
		t.Fatalf("%s: ClockBytesPeak %d below one clock", label, st.ClockBytesPeak)
	}
}

// TestChainClockSweepMatchesReachability is the sweep's core differential
// property: on random full-MTEP traces, for every ordered pair (u, v) the
// clock-domination test equals u ⇒ v in the bit-array closure.
func TestChainClockSweepMatchesReachability(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(400 + seed))
		g, err := Build(randomMTEP(rng, 250), Config{})
		if err != nil {
			t.Fatal(err)
		}
		checkSweepMatchesReach(t, fmt.Sprintf("seed %d", seed), g)
	}
}

// TestChainClockSweepAblations repeats the differential check under Table 9
// rule ablations, which degrade Pnreg contexts and reshape the chain
// decomposition — and, via DisableEvent, drop the Eserial fixed point whose
// late edges the sweep must still absorb when enabled.
func TestChainClockSweepAblations(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		tr := randomMTEP(rng, 200)
		for ci, cfg := range table9Configs[1:] {
			g, err := Build(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkSweepMatchesReach(t, fmt.Sprintf("seed %d cfg %d", seed, ci), g)
		}
	}
}

// TestChainClockSweepEserial pins the Eserial interaction directly: two
// handlers of a serial queue have no Table-2 pair edge between them, only
// the fixed point's serialization edge, so the second handler's clock must
// dominate the first handler's epochs purely via an Eserial edge join.
func TestChainClockSweepEserial(t *testing.T) {
	c := trace.NewCollector("t")
	c.SetQueueInfo("n/q", 1)
	emit := func(r trace.Rec) { c.Emit(r) }
	emit(trace.Rec{Node: "n", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KEventCreate, Op: 1, Queue: "n/q", StaticID: 1})
	emit(trace.Rec{Node: "n", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KEventCreate, Op: 2, Queue: "n/q", StaticID: 2})
	emit(trace.Rec{Node: "n", Thread: 9, Ctx: 100, CtxKind: trace.CtxEvent, Kind: trace.KEventBegin, Op: 1, Queue: "n/q", StaticID: 3})
	emit(trace.Rec{Node: "n", Thread: 9, Ctx: 100, CtxKind: trace.CtxEvent, Kind: trace.KMemWrite, Obj: "n/x", StaticID: 4})
	emit(trace.Rec{Node: "n", Thread: 9, Ctx: 100, CtxKind: trace.CtxEvent, Kind: trace.KEventEnd, Op: 1, Queue: "n/q", StaticID: 5})
	emit(trace.Rec{Node: "n", Thread: 9, Ctx: 101, CtxKind: trace.CtxEvent, Kind: trace.KEventBegin, Op: 2, Queue: "n/q", StaticID: 6})
	emit(trace.Rec{Node: "n", Thread: 9, Ctx: 101, CtxKind: trace.CtxEvent, Kind: trace.KMemRead, Obj: "n/x", StaticID: 7})
	emit(trace.Rec{Node: "n", Thread: 9, Ctx: 101, CtxKind: trace.CtxEvent, Kind: trace.KEventEnd, Op: 2, Queue: "n/q", StaticID: 8})
	tr := c.Trace()
	g, err := Build(tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkSweepMatchesReach(t, "eserial", g)
	dec, clocks, _ := sweepClocks(g)
	// Record 6 (second handler's read) must dominate record 3 (first
	// handler's write) — orderable only through the Eserial edge.
	if !g.HappensBefore(3, 6) {
		t.Fatal("test geometry broken: Eserial did not order the handlers")
	}
	if !clocks[6].Dominates(vclock.MakeEpoch(dec.Of[3], dec.Pos[3])) {
		t.Fatal("second handler's clock missed the Eserial join")
	}
}

// TestChainClockSweepProjection asserts a projected sweep agrees entry for
// entry with the identity sweep on every tracked chain: untracked chains
// carry no column but still propagate tracked-chain positions through.
func TestChainClockSweepProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(700))
	tr := randomMTEP(rng, 250)
	g, err := Build(tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dec, full, _ := sweepClocks(g)
	c := dec.Chains()
	proj := make([]int32, c)
	width := int32(0)
	for i := range proj {
		if rng.Intn(2) == 0 {
			proj[i] = width
			width++
		} else {
			proj[i] = -1
		}
	}
	got := make([]vclock.ChainClock, g.N())
	g.ChainClockSweep(dec, proj, int(width), func(v int, cc vclock.ChainClock) {
		got[v] = cc.Clone()
	})
	for v := range got {
		if len(got[v]) != int(width) {
			t.Fatalf("vertex %d: clock width %d, want %d", v, len(got[v]), width)
		}
		for ch := 0; ch < c; ch++ {
			if col := proj[ch]; col >= 0 && got[v][col] != full[v][ch] {
				t.Fatalf("vertex %d chain %d: projected entry %d, identity entry %d",
					v, ch, got[v][col], full[v][ch])
			}
		}
	}
}

// TestChainClockSweepEmpty covers the degenerate inputs.
func TestChainClockSweepEmpty(t *testing.T) {
	g, err := Build(trace.NewCollector("n").Trace(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := g.ChainClockSweep(g.ChainDecomposition(), nil, 0, func(int, vclock.ChainClock) {
		t.Fatal("visit called on an empty graph")
	})
	if st != (SweepStats{}) {
		t.Fatalf("empty sweep produced stats %+v", st)
	}
}

// TestChainDecompositionAgrees checks the admission model does not change
// the decomposition: both models compute it from the same ctxKey grouping.
func TestChainDecompositionAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	tr := randomMTEP(rng, 150)
	dense, err := Build(tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := Build(tr, Config{ReachBackend: BackendChain})
	if err != nil {
		t.Fatal(err)
	}
	dd, cd := dense.ChainDecomposition(), chain.ChainDecomposition()
	if dd.Chains() != cd.Chains() {
		t.Fatalf("chain counts diverged: %d vs %d", dd.Chains(), cd.Chains())
	}
	for v := range dd.Of {
		if dd.Of[v] != cd.Of[v] || dd.Pos[v] != cd.Pos[v] {
			t.Fatalf("vertex %d decomposition diverged", v)
		}
	}
}
