package vclock

import (
	"math"
	"testing"
)

func TestEpochPacking(t *testing.T) {
	cases := []struct{ chain, pos int32 }{
		{0, 0}, {1, 2}, {7, 0}, {0, 7},
		{math.MaxInt32, 0}, {0, math.MaxInt32}, {math.MaxInt32, math.MaxInt32},
	}
	for _, tc := range cases {
		e := MakeEpoch(tc.chain, tc.pos)
		if e.Chain() != tc.chain || e.Pos() != tc.pos {
			t.Fatalf("MakeEpoch(%d,%d) round-tripped to (%d,%d)", tc.chain, tc.pos, e.Chain(), e.Pos())
		}
	}
	// Epoch ordering within a chain follows position ordering: the packed
	// word must compare the same way the position does.
	if MakeEpoch(3, 5) >= MakeEpoch(3, 6) {
		t.Fatal("packed epochs of one chain do not order by position")
	}
}

func TestChainClockObserveDominates(t *testing.T) {
	c := NewChainClock(3)
	for i := range c {
		if c[i] != Unreached {
			t.Fatalf("fresh clock entry %d = %d, want Unreached", i, c[i])
		}
	}
	if c.Dominates(MakeEpoch(1, 0)) {
		t.Fatal("fresh clock dominates an epoch")
	}
	if !c.Observe(MakeEpoch(1, 4)) {
		t.Fatal("Observe of a fresh chain did not advance")
	}
	if !c.Dominates(MakeEpoch(1, 4)) || !c.Dominates(MakeEpoch(1, 0)) {
		t.Fatal("clock does not dominate observed prefix")
	}
	if c.Dominates(MakeEpoch(1, 5)) || c.Dominates(MakeEpoch(0, 0)) {
		t.Fatal("clock dominates beyond what it observed")
	}
	// Observing a dominated epoch is the no-op fast path.
	if c.Observe(MakeEpoch(1, 3)) || c[1] != 4 {
		t.Fatal("Observe of a dominated epoch advanced the clock")
	}
}

// TestChainClockOverflowPositions pins the representation at the extremes:
// positions up to MaxInt32 are valid epochs and never collide with the
// Unreached sentinel (which only lives inside clock entries).
func TestChainClockOverflowPositions(t *testing.T) {
	c := NewChainClock(2)
	top := MakeEpoch(0, math.MaxInt32)
	if !c.Observe(top) {
		t.Fatal("observing MaxInt32 position did not advance over Unreached")
	}
	if !c.Dominates(top) || !c.Dominates(MakeEpoch(0, 0)) {
		t.Fatal("MaxInt32 position does not dominate its chain")
	}
	if c.Observe(top) {
		t.Fatal("re-observing the top position advanced")
	}
	if c.Dominates(MakeEpoch(1, 0)) {
		t.Fatal("untouched chain became dominated")
	}
	// Reset returns every entry to Unreached, including saturated ones.
	c.Reset()
	if c.Dominates(MakeEpoch(0, 0)) {
		t.Fatal("Reset did not clear a saturated entry")
	}
}

// TestChainClockJoinRejoin models the Eserial fixed point's behavior: a
// source clock is joined, later rounds re-join the same (or a further
// advanced) source, and the result must be monotone and idempotent — the
// property that lets the epoch sweep run once over the final edge set
// instead of iterating with the fixed point.
func TestChainClockJoinRejoin(t *testing.T) {
	src := NewChainClock(4)
	src.Observe(MakeEpoch(0, 3))
	src.Observe(MakeEpoch(2, 7))

	dst := NewChainClock(4)
	dst.Observe(MakeEpoch(1, 5))
	dst.Observe(MakeEpoch(2, 9)) // already past src in chain 2

	if adv := dst.Join(src); adv != 1 {
		t.Fatalf("first join advanced %d entries, want 1 (chain 0 only)", adv)
	}
	want := ChainClock{3, 5, 9, Unreached}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("after join, dst = %v, want %v", dst, want)
		}
	}
	// Re-join of the unchanged source: idempotent, zero advances.
	if adv := dst.Join(src); adv != 0 {
		t.Fatalf("re-join advanced %d entries, want 0", adv)
	}
	// The source advances (a later fixed-point round found more ancestors);
	// re-joining advances only the changed entries.
	src.Observe(MakeEpoch(3, 1))
	src.Observe(MakeEpoch(0, 4))
	if adv := dst.Join(src); adv != 2 {
		t.Fatalf("post-advance re-join advanced %d entries, want 2", adv)
	}
	want = ChainClock{4, 5, 9, 1}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("after re-join, dst = %v, want %v", dst, want)
		}
	}
}

func TestChainClockCopyClone(t *testing.T) {
	a := NewChainClock(3)
	a.Observe(MakeEpoch(0, 1))
	b := NewChainClock(3)
	b.Observe(MakeEpoch(2, 2))
	b.CopyFrom(a)
	if b[0] != 1 || b[2] != Unreached {
		t.Fatalf("CopyFrom did not overwrite: %v", b)
	}
	c := a.Clone()
	c.Observe(MakeEpoch(1, 9))
	if a[1] != Unreached {
		t.Fatal("Clone aliases its source")
	}
}

// TestChainClockAbsorbMatchesJoin asserts the branch-free Absorb computes
// the same elementwise max Join does.
func TestChainClockAbsorbMatchesJoin(t *testing.T) {
	a := ChainClock{5, Unreached, 3, 7, 0}
	b := ChainClock{2, 4, 3, 9, Unreached}
	j := a.Clone()
	j.Join(b)
	ab := a.Clone()
	ab.Absorb(b)
	for i := range j {
		if j[i] != ab[i] {
			t.Fatalf("entry %d: Join %d vs Absorb %d", i, j[i], ab[i])
		}
	}
	ab.Absorb(nil) // zero-length absorb is a no-op
	for i := range j {
		if j[i] != ab[i] {
			t.Fatalf("entry %d changed by empty absorb", i)
		}
	}
}

// NewChainClock returns a clock over chains chains with every entry
// Unreached.
func NewChainClock(chains int) ChainClock {
	c := make(ChainClock, chains)
	c.Reset()
	return c
}

// Join folds clock o into c (elementwise max) and returns the number of
// entries that advanced: the branching reference Absorb must match.
func (c ChainClock) Join(o ChainClock) int {
	advanced := 0
	for i, v := range o {
		if v > c[i] {
			c[i] = v
			advanced++
		}
	}
	return advanced
}
