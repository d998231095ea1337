package hb

import "dcatch/internal/vclock"

// ResumableSweep is ChainClockSweep's in-order append form, built for the
// streaming analyzer (internal/stream): where the batch sweep walks a
// finished graph with precomputed cross-edge refcounts and a fixed-width
// projection, the resumable sweep carries a growable per-chain frontier
// across appends and never needs to see the whole graph.
//
// Three differences follow from not knowing the future:
//
//   - Chains are discovered as vertices arrive, so clocks grow lazily: a
//     clock shorter than the current chain count reads vclock.Unreached for
//     every missing column. Growth is sound because a clock only ever misses
//     chains that had no vertex when it was taken — chains the owner cannot
//     have an ancestor in.
//   - Cross-chain in-edges are supplied by the caller as snapshots it took
//     at the source (Snapshot); the batch sweep's refcounted snapshot pool
//     needs the source's cross-chain out-degree, which streaming cannot know
//     until the trace ends.
//   - There is no projection: every chain gets a column, because which
//     chains will bear candidate accesses is unknown until the end.
//
// The frontier invariant matches the batch sweep's: after Advance(c, pos,
// srcs), the chain-c frontier is the clock of the chain's latest vertex —
// entry s is the highest position in chain s among that vertex's ancestors
// (itself included), or Unreached — provided the caller supplies every
// cross-chain in-edge source's snapshot. Positions within a chain must be
// fed in ascending order, which trace order guarantees.
type ResumableSweep struct {
	frontier []vclock.ChainClock // frontier[c] = chain c's latest clock
	bytes    int64               // current frontier footprint in bytes
}

// NewResumableSweep returns an empty sweep; chains materialize on first
// Advance.
func NewResumableSweep() *ResumableSweep { return &ResumableSweep{} }

// grow extends clock c to at least n entries, new entries Unreached, and
// returns it (tracking the byte delta).
func (s *ResumableSweep) grow(c vclock.ChainClock, n int) vclock.ChainClock {
	if len(c) >= n {
		return c
	}
	old := len(c)
	if cap(c) >= n {
		c = c[:n]
	} else {
		nc := make(vclock.ChainClock, n, max(n, 2*old))
		copy(nc, c)
		c = nc
	}
	for i := old; i < n; i++ {
		c[i] = vclock.Unreached
	}
	s.bytes += int64(n-old) * 4
	return c
}

// Advance appends the next vertex of chain `chain` at position pos,
// absorbing each cross-chain in-edge source snapshot in srcs, and returns
// the vertex's clock. The returned clock is the live frontier — valid only
// until the next Advance on the same chain; use Snapshot to retain it.
func (s *ResumableSweep) Advance(chain int, pos int32, srcs ...vclock.ChainClock) vclock.ChainClock {
	for chain >= len(s.frontier) {
		s.frontier = append(s.frontier, nil)
	}
	fc := s.frontier[chain]
	fc = s.grow(fc, chain+1)
	for _, src := range srcs {
		fc = s.grow(fc, len(src))
		// Absorb is elementwise max over src's length; fc is at least as
		// long after grow.
		fc.Absorb(src)
	}
	if fc[chain] < pos {
		fc[chain] = pos
	}
	s.frontier[chain] = fc
	return fc
}

// Snapshot returns an independent copy of chain's frontier clock, for
// retention as a future cross-chain edge source. The copy's bytes are the
// caller's to account.
func (s *ResumableSweep) Snapshot(chain int) vclock.ChainClock {
	if chain >= len(s.frontier) || s.frontier[chain] == nil {
		return nil
	}
	return s.frontier[chain].Clone()
}

// At reads clock entry `chain`, treating a short or nil clock as Unreached —
// the growable-clock form of clock[chain].
func At(c vclock.ChainClock, chain int32) int32 {
	if int(chain) >= len(c) {
		return vclock.Unreached
	}
	return c[chain]
}

// FrontierBytes returns the frontier's current clock footprint — the
// stream.frontier_bytes gauge.
func (s *ResumableSweep) FrontierBytes() int64 { return s.bytes }
