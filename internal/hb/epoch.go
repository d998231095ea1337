package hb

import (
	"sync"

	"dcatch/internal/vclock"
)

// Chain-clock sweep — the edge-order clock propagation behind the one-pass
// detector (internal/detect). Where the closure materializes a per-vertex
// reachability index and answers point queries,
// the sweep walks the final HB DAG once in trace (= topological) order and
// hands each vertex its chain clock: per chain, the highest position among
// the vertex's ancestors (itself included). Exactness follows from the same
// two facts the chain backend rests on (DESIGN.md §10): Rule-Preg/Pnreg
// totally orders every chain, and every edge points forward in trace time.
// The sweep answers for the graph as it stands: Build runs one per
// Rule-Eserial round (serialSweep) against that round's edges, and a sweep
// after Build sees every Table-2 rule edge including the fixed point's.

// ChainDecomposition is a trace's program-order chain decomposition under
// one graph's ablation config: the grouping whose consecutive records
// addProgramOrder links, so the records of one chain are totally ordered by
// happens-before. The slices are views shared with the graph on the chain
// backend — callers must treat them as read-only.
type ChainDecomposition struct {
	Of  []int32 // Of[v] = chain of vertex v (first-appearance numbering)
	Pos []int32 // Pos[v] = v's position within its chain
	Len []int32 // Len[c] = number of vertices in chain c
}

// Chains returns the chain count.
func (d ChainDecomposition) Chains() int { return len(d.Len) }

// ChainDecomposition returns the graph's chain decomposition. The chain
// backend already holds one and returns it directly; the dense backend
// builds one on first call and memoizes it (a chainSet is immutable once
// built, so concurrent callers share it safely behind the Once).
func (g *Graph) ChainDecomposition() ChainDecomposition {
	cs := g.chains
	if cs == nil {
		g.decOnce.Do(func() { g.dec = newChainSet(g) })
		cs = g.dec
	}
	return ChainDecomposition{Of: cs.chainOf, Pos: cs.posOf, Len: cs.chainLen}
}

// SweepStats summarizes one ChainClockSweep for observability: the epoch
// detector records these as detect.epoch.* counters.
type SweepStats struct {
	// Joins is the number of cross-chain clock joins performed — one per
	// cross-chain in-edge, each O(C).
	Joins int64
	// FastpathHits counts vertices whose clock advanced on the O(1)
	// same-chain fast path alone (no cross-chain in-edges to join).
	FastpathHits int64
	// ClockBytesPeak is the peak clock memory held at any sweep instant:
	// per-chain frontier clocks plus live cross-edge snapshots.
	ClockBytesPeak int64
}

// sweepScratch recycles the sweep's O(V) working state across sweeps. Both
// arrays drain naturally by the end of a completed sweep — every refcount
// hits zero and every snapshot slot is nil'd or never set — so a pooled
// scratch is already zeroed and costs no clearing pass. The clock free list
// is reusable only while the projection width matches.
type sweepScratch struct {
	refs   []int32
	snaps  []vclock.ChainClock
	clocks []vclock.ChainClock
	width  int
}

var sweepScratchPool = sync.Pool{New: func() any { return &sweepScratch{} }}

// ChainClockSweep walks every vertex in trace order and calls visit with the
// vertex's chain clock: clock[proj[c]] is the highest position in chain c
// among the vertex's ancestors, itself included, or vclock.Unreached. For
// any u < v in a tracked chain, u happens before v exactly when v's clock
// dominates u's projected epoch — the O(1) concurrency test the epoch
// scanner uses in place of reachability queries. The clock passed to visit
// is reused storage, valid only for the duration of the call; callers must
// copy what they keep.
//
// dec must be the graph's own decomposition (g.ChainDecomposition()); it is
// a parameter so callers that need the decomposition for their own indexing
// compute it once.
//
// proj projects chains onto clock columns: proj[c] is chain c's column in
// [0, width), or -1 for a chain no caller will ever test an epoch against.
// Untracked chains still propagate — their frontiers carry ancestor
// positions of tracked chains through — but cost no column, so every O(C)
// clock operation shrinks to O(width). The epoch detector tracks only
// chains holding candidate accesses; handler-only chains (often the vast
// majority on RPC/event-heavy traces) ride along for free. A nil proj means
// the identity projection: every chain tracked, width = dec.Chains().
//
// The sweep maintains one frontier clock per chain — the clock of the
// chain's most recent vertex, extended in place, since a chain's clocks only
// ever grow along it. A vertex's same-chain predecessor is subsumed by that
// frontier (the chain is totally ordered, so the program-order predecessor
// dominates every earlier same-chain vertex), which is why only cross-chain
// in-edges cost a join. Cross-chain edge sources snapshot their clock with a
// refcount equal to their cross-chain out-degree; snapshots return to a free
// pool at zero (a chain's last vertex donates the dead frontier instead of
// copying it), bounding live clock memory by the decomposition's width
// rather than the trace length.
func (g *Graph) ChainClockSweep(dec ChainDecomposition, proj []int32, width int, visit func(v int, clock vclock.ChainClock)) SweepStats {
	n := g.N()
	c := dec.Chains()
	var st SweepStats
	if n == 0 || c == 0 {
		return st
	}
	if proj == nil {
		proj = make([]int32, c)
		for i := range proj {
			proj[i] = int32(i)
		}
		width = c
	}

	scratch := sweepScratchPool.Get().(*sweepScratch)
	if cap(scratch.refs) < n {
		scratch.refs = make([]int32, n)
		scratch.snaps = make([]vclock.ChainClock, n)
	}
	if scratch.width != width {
		scratch.clocks = nil
		scratch.width = width
	}

	// refs[u] = u's cross-chain out-degree: how many consumers will join
	// u's snapshot before it can be pooled.
	refs := scratch.refs[:n]
	for v := range g.in {
		cv := dec.Of[v]
		for _, u := range g.in[v] {
			if dec.Of[u] != cv {
				refs[u]++
			}
		}
	}

	frontier := make([]vclock.ChainClock, c)
	snaps := scratch.snaps[:n]
	pool := scratch.clocks
	// alloc hands out a clock with unspecified contents: every call site
	// either overwrites it wholesale (CopyFrom) or Resets it. Skipping the
	// unconditional Reset matters — most chains are short-lived handler
	// contexts whose first act is absorbing a predecessor snapshot.
	alloc := func() vclock.ChainClock {
		if k := len(pool); k > 0 {
			cc := pool[k-1]
			pool = pool[:k-1]
			return cc
		}
		return make(vclock.ChainClock, width)
	}

	for v := 0; v < n; v++ {
		cv := dec.Of[v]
		fc := frontier[cv]
		fresh := fc == nil
		fast := true
		for _, u := range g.in[v] {
			if dec.Of[u] == cv {
				continue // subsumed by the chain frontier
			}
			su := snaps[u]
			if fresh {
				// First vertex of its chain: seed the frontier straight
				// from the first source snapshot (a fresh frontier is all
				// Unreached, so join-into-empty is a copy).
				fc = alloc()
				fc.CopyFrom(su)
				frontier[cv] = fc
				fresh = false
			} else {
				fc.Absorb(su)
			}
			st.Joins++
			fast = false
			if refs[u]--; refs[u] == 0 {
				pool = append(pool, su)
				snaps[u] = nil
			}
		}
		if fresh {
			fc = alloc()
			fc.Reset()
			frontier[cv] = fc
		}
		if fast {
			st.FastpathHits++
		}
		if col := proj[cv]; col >= 0 {
			fc.Observe(vclock.MakeEpoch(col, dec.Pos[v]))
		}
		visit(v, fc)
		if last := dec.Pos[v]+1 == dec.Len[cv]; refs[v] > 0 {
			if last {
				// The chain is exhausted: its frontier IS the snapshot.
				snaps[v] = fc
				frontier[cv] = nil
			} else {
				s := alloc()
				s.CopyFrom(fc)
				snaps[v] = s
			}
		} else if last {
			pool = append(pool, fc)
			frontier[cv] = nil
		}
	}
	// Every clock drains back to the free list by the end of the sweep
	// (each chain closes, each snapshot's refcount hits zero), so its
	// length is exactly the number of clocks the sweep held at once —
	// frontiers of open chains plus live snapshots — whether they were
	// allocated here or recycled from a previous sweep.
	st.ClockBytesPeak = int64(len(pool)) * int64(width) * 4
	scratch.clocks = pool
	sweepScratchPool.Put(scratch)
	return st
}
