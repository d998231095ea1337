package detect

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dcatch/internal/hb"
	"dcatch/internal/trace"
)

// TestEpochMatchesOraclesRandom is the differential gate for the chain-clock
// sweep: across random traces, a handler-heavy one with more than 4096
// chains, two decoded ones (see sharedStackTrace) and one with a location
// past the default cap (hotLocationTrace), every rule-ablation config, both
// reachability backends, the default and a small MaxGroup and pull
// suppression, Find's report must equal the quadratic oracle's pair for
// pair — identity, representative records, object and Dynamic count — and
// its subsampling counters the oracle's.
func TestEpochMatchesOraclesRandom(t *testing.T) {
	ablations := []struct {
		name string
		cfg  hb.Config
	}{
		{"full", hb.Config{}},
		{"noevent", hb.Config{DisableEvent: true}},
		{"norpc", hb.Config{DisableRPC: true}},
		{"nosocket", hb.Config{DisableSocket: true}},
		{"nopush", hb.Config{DisablePush: true}},
		{"noasync", hb.Config{DisableEvent: true, DisableRPC: true, DisableSocket: true, DisablePush: true}},
	}
	type input struct {
		name      string
		tr        *trace.Trace
		minChains int // under the full rule set
	}
	var inputs []input
	for trial := 0; trial < 3; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		inputs = append(inputs, input{fmt.Sprintf("trial %d", trial), randomDetectTrace(rng, 250), 0})
	}
	inputs = append(inputs,
		input{"handlers", handlerHeavyTrace(rand.New(rand.NewSource(1300)), 4200), 4097},
		input{"decoded", roundTrip(t, randomDetectTrace(rand.New(rand.NewSource(1003)), 250)), 0},
		input{"shared stack", roundTrip(t, sharedStackTrace(rand.New(rand.NewSource(1004)), 250)), 0},
		input{"hot", hotLocationTrace(rand.New(rand.NewSource(1005))), 0})

	for _, in := range inputs {
		for _, ab := range ablations {
			for _, be := range []hb.Backend{hb.BackendDense, hb.BackendChain} {
				cfg := ab.cfg
				cfg.ReachBackend = be
				cfg.LoopReads = pollLoopReads
				g, err := hb.Build(in.tr, cfg)
				if err != nil {
					t.Fatalf("%s %s/%s: %v", in.name, ab.name, be, err)
				}
				if ab.name == "full" && g.ChainDecomposition().Chains() < in.minChains {
					t.Fatalf("%s: %d chains, want at least %d", in.name, g.ChainDecomposition().Chains(), in.minChains)
				}
				for _, maxGroup := range []int{0, 20} {
					label := fmt.Sprintf("%s %s/%s maxGroup=%d", in.name, ab.name, be, maxGroup)
					opts := Options{MaxGroup: maxGroup}
					want, wantSub, wantDropped := quadraticReport(g, opts)
					got, ctr := runFind(g, opts)
					if len(want.Pairs) == 0 {
						t.Fatalf("%s: oracle found no candidates; test is vacuous", label)
					}
					diffReports(t, label, got, want)
					if ctr["detect.subsampled_locations"] != wantSub {
						t.Fatalf("%s: subsampled %d locations, oracle %d", label, ctr["detect.subsampled_locations"], wantSub)
					}
					if ctr["detect.subsampled_accesses_dropped"] != wantDropped {
						t.Fatalf("%s: dropped %d accesses, oracle %d", label, ctr["detect.subsampled_accesses_dropped"], wantDropped)
					}
					if ctr["detect.epoch.joins"]+ctr["detect.epoch.fastpath_hits"] == 0 {
						t.Fatalf("%s: sweep counters empty", label)
					}
					if ctr["detect.epoch.clock_bytes_peak"] <= 0 {
						t.Fatalf("%s: detect.epoch.clock_bytes_peak not reported", label)
					}

					// Pull suppression: with the first candidate's static
					// pair added to the discovered pull pairs, both sides
					// must lose the same pairs.
					discovered := g.PullPairs
					g.PullPairs = append(discovered[:len(discovered):len(discovered)],
						hb.PullPair{ReadStatic: want.Pairs[0].AStatic, WriteStatic: want.Pairs[0].BStatic})
					opts.SuppressPull = true
					wantPull, _, _ := quadraticReport(g, opts)
					gotPull, _ := runFind(g, opts)
					g.PullPairs = discovered
					if len(wantPull.Pairs) >= len(want.Pairs) {
						t.Fatalf("%s: pull suppression removed nothing", label)
					}
					diffReports(t, label+" pull", gotPull, wantPull)
				}
			}
		}
	}
}

// TestEpochMatchesOraclesChunked runs the differential over the chunked
// reference pipeline: per-window sweeps plus the ChunkMerger's cross-window
// merge must equal per-window quadratic scans merged by the oracle.
func TestEpochMatchesOraclesChunked(t *testing.T) {
	for name, tr := range map[string]*trace.Trace{
		"random":  randomDetectTrace(rand.New(rand.NewSource(1100)), 400),
		"decoded": roundTrip(t, sharedStackTrace(rand.New(rand.NewSource(1101)), 400)),
	} {
		for _, be := range []hb.Backend{hb.BackendDense, hb.BackendChain} {
			chunks, err := hb.BuildChunked(tr, hb.ChunkConfig{Base: hb.Config{ReachBackend: be}, ChunkSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			for _, maxGroup := range []int{0, 10} {
				opts := Options{MaxGroup: maxGroup}
				want := quadraticChunkedReport(chunks, opts)
				if len(want.Pairs) == 0 {
					t.Fatal("empty reference report; generator produced no candidates")
				}
				diffReports(t, fmt.Sprintf("chunked %s %s maxGroup=%d", name, be, maxGroup), FindChunked(chunks, opts), want)
			}
		}
	}
}

// roundTrip passes tr through the binary encoder and decoder, whose stack
// interning makes records with equal stacks share one backing array.
func roundTrip(t *testing.T, tr *trace.Trace) *trace.Trace {
	t.Helper()
	out, err := trace.Decode(bytes.NewReader(tr.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sharedStackTrace is randomDetectTrace with a third of its records moved
// onto one common callstack, so many accesses have equal stacks but
// different static IDs and only the static ID tells their callstack keys
// apart.
func sharedStackTrace(rng *rand.Rand, n int) *trace.Trace {
	tr := randomDetectTrace(rng, n)
	for i := range tr.Recs {
		if i%3 == 0 {
			tr.Recs[i].Stack = []int32{9, 9}
		}
	}
	return tr
}
