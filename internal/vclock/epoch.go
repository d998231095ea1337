// Package vclock implements chain clocks: the dense, chain-indexed clock
// representation behind every reachability answer in internal/hb — the
// one-pass detector's sweep, Rule-Eserial's rounds and the point-query
// index. A ChainClock is fixed to one HB graph's chain decomposition: entry
// c holds the highest position in chain c known to happen at-or-before the
// clock's owner. Because every chain is totally ordered by Rule-Preg/Pnreg,
// a single int32 per chain represents the full ancestor set exactly — the
// FastTrack/Djit epoch idea (Kini et al., "Dynamic Race Prediction in Linear
// Time"; SHB) transplanted onto DCatch's chain decomposition.
//
// DCatch §3.2.2 rejects naive vector timestamps (one dimension per handler
// and RPC instance, joined over every edge) as too slow and uses per-vertex
// bit arrays instead; both survive as test oracles and benchmarks in
// internal/hb.
package vclock

import "fmt"

// Unreached is the ChainClock entry for a chain the owner has no ancestor
// in. Positions are >= 0, so -1 compares below every real position.
const Unreached int32 = -1

// Epoch identifies one vertex of a chain decomposition: its chain and its
// position within the chain, packed into one comparable word (chain in the
// high half, position in the low half). The full int32 position range is
// representable; Unreached never appears inside an Epoch.
type Epoch uint64

// MakeEpoch packs (chain, pos). Both must be non-negative.
func MakeEpoch(chain, pos int32) Epoch {
	return Epoch(uint64(uint32(chain))<<32 | uint64(uint32(pos)))
}

// Chain returns the chain half of the epoch.
func (e Epoch) Chain() int32 { return int32(uint32(e >> 32)) }

// Pos returns the position half of the epoch.
func (e Epoch) Pos() int32 { return int32(uint32(e)) }

// String renders the epoch as chain@pos for debugging.
func (e Epoch) String() string { return fmt.Sprintf("%d@%d", e.Chain(), e.Pos()) }

// ChainClock is a dense clock over a fixed chain decomposition, one entry
// per chain, Unreached until observed. All operations are O(1) per entry
// touched; Observe — the same-chain fast path of the epoch detector —
// touches exactly one.
type ChainClock []int32

// Reset sets every entry back to Unreached (for clock reuse via free pools).
func (c ChainClock) Reset() {
	for i := range c {
		c[i] = Unreached
	}
}

// Observe advances the entry for e's chain to e's position and reports
// whether the clock actually advanced. Positions only ever grow along a
// chain, so observing an already-dominated epoch is a no-op — the O(1)
// fast path a chain's own program-order successor takes on every step.
func (c ChainClock) Observe(e Epoch) bool {
	ch, pos := e.Chain(), e.Pos()
	if c[ch] >= pos {
		return false
	}
	c[ch] = pos
	return true
}

// Dominates reports whether the clock's owner has epoch e as an ancestor
// (or is e itself): some at-or-before vertex sits at or past e's position in
// e's chain. With Unreached = -1 this is a single compare.
func (c ChainClock) Dominates(e Epoch) bool {
	return c[e.Chain()] >= e.Pos()
}

// Absorb folds clock o into c (elementwise max) without reporting what
// advanced — the branch-free join of the sweep's hot loop: conditional
// moves instead of a data-dependent branch per entry.
func (c ChainClock) Absorb(o ChainClock) {
	if len(o) == 0 {
		return
	}
	c = c[:len(o)]
	for i, v := range o {
		c[i] = max(c[i], v)
	}
}

// CopyFrom overwrites c with o (for snapshotting a frontier clock at a
// cross-chain edge source). The clocks must be over the same decomposition.
func (c ChainClock) CopyFrom(o ChainClock) {
	copy(c, o)
}

// Clone returns an independent copy of c.
func (c ChainClock) Clone() ChainClock {
	n := make(ChainClock, len(c))
	copy(n, c)
	return n
}
