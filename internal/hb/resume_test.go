package hb

import (
	"math/rand"
	"testing"

	"dcatch/internal/vclock"
)

// Differential property: driving the resumable sweep from Deriver steps,
// one record at a time — each first pair source snapshotting its clock for
// the targets that name it, exactly as the streaming analyzer does — yields
// the same chain decomposition and per-vertex clock as the batch
// ChainClockSweep over the finished graph, under every Table 9
// configuration. randomTrace has no single-consumer queues, so the built
// graph carries no Eserial edges and every in-edge is online-derivable.
func TestResumableSweepMatchesBatch(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, 150)
		for ci, cfg := range table9Configs {
			cfg.ReachBackend = BackendChain
			g, err := Build(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			dec := g.ChainDecomposition()
			batch := make([]vclock.ChainClock, g.N())
			g.ChainClockSweep(dec, nil, 0, func(v int, clock vclock.ChainClock) {
				batch[v] = clock.Clone()
			})

			d := NewDeriver(cfg)
			rs := NewResumableSweep()
			srcClock := map[int32]vclock.ChainClock{}
			for v := range tr.Recs {
				st := d.Next(v, &tr.Recs[v])
				if st.Chain != dec.Of[v] || st.Pos != dec.Pos[v] {
					t.Fatalf("seed %d cfg %d vertex %d: deriver places it at chain %d pos %d, Build at %d/%d",
						seed, ci, v, st.Chain, st.Pos, dec.Of[v], dec.Pos[v])
				}
				var srcs []vclock.ChainClock
				if st.Src >= 0 {
					srcs = append(srcs, srcClock[st.Src])
				}
				clock := rs.Advance(int(st.Chain), st.Pos, srcs...)
				for c := int32(0); c < int32(dec.Chains()); c++ {
					if got, want := At(clock, c), batch[v][c]; got != want {
						t.Fatalf("seed %d cfg %d vertex %d chain %d: resumable %d, batch %d",
							seed, ci, v, c, got, want)
					}
				}
				if st.FirstSource {
					srcClock[int32(v)] = rs.Snapshot(int(st.Chain))
				}
			}
			if rs.Chains() != dec.Chains() {
				t.Fatalf("seed %d cfg %d: resumable saw %d chains, decomposition has %d",
					seed, ci, rs.Chains(), dec.Chains())
			}
			if rs.FrontierBytes() <= 0 {
				t.Fatal("FrontierBytes not accounted")
			}
		}
	}
}

// At must read Unreached past a clock's length and the real entry inside it.
func TestResumableAt(t *testing.T) {
	c := vclock.ChainClock{3, vclock.Unreached}
	if At(c, 0) != 3 || At(c, 1) != vclock.Unreached || At(c, 5) != vclock.Unreached {
		t.Fatal("At misreads growable clock")
	}
	if At(nil, 0) != vclock.Unreached {
		t.Fatal("At(nil) must be Unreached")
	}
}

// Chains returns the number of chains seen so far.
func (s *ResumableSweep) Chains() int { return len(s.frontier) }
