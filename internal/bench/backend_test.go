package bench

import (
	"testing"

	"dcatch/internal/detect"
	"dcatch/internal/hb"
)

// This file is the report-level half of the backend differential suite (the
// query-level half lives in internal/hb): on synthetic full-pipeline traces,
// dense and chain backends must render byte-identical detection reports, in
// both the per-handler-context regime (SyntheticTrace, many chains) and the
// bounded-context regime (SyntheticTraceBounded, constant chains).

// TestBoundedTraceChainCount pins the property the bounded-trace sweeps rely
// on: the generator's chain count is independent of trace length.
func TestBoundedTraceChainCount(t *testing.T) {
	counts := map[int]int{}
	for _, n := range []int{10_000, 40_000} {
		g, err := hb.Build(SyntheticTraceBounded(n, 7), hb.Config{ReachBackend: hb.BackendChain})
		if err != nil {
			t.Fatal(err)
		}
		counts[n] = g.Chains()
		if g.Chains() > 16+192+1 {
			t.Fatalf("%d records: %d chains, want a bounded count", n, g.Chains())
		}
	}
	if counts[10_000] != counts[40_000] {
		t.Fatalf("chain count grew with trace length: %v", counts)
	}
}

// reportParity builds one trace and asserts byte-identical reports across
// backends.
func reportParity(t *testing.T, name string, recs int, bounded bool) {
	t.Helper()
	tr := SyntheticTrace(recs, 1)
	if bounded {
		tr = SyntheticTraceBounded(recs, 2)
	}
	var reference string
	for _, be := range []hb.Backend{hb.BackendDense, hb.BackendChain} {
		g, err := hb.Build(tr, hb.Config{ReachBackend: be})
		if err != nil {
			t.Fatalf("%s %v: %v", name, be, err)
		}
		got := detect.Find(g, detect.Options{MaxGroup: 300}).Format(nil)
		if reference == "" {
			reference = got
			continue
		}
		if got != reference {
			t.Fatalf("%s: %v report diverged from dense", name, be)
		}
	}
	if reference == "" || reference[0] == '0' {
		t.Fatalf("%s: degenerate report %q", name, reference)
	}
}

func TestBackendReportParityPerHandler(t *testing.T) { reportParity(t, "per-handler", 8000, false) }
func TestBackendReportParityBounded(t *testing.T)    { reportParity(t, "bounded", 20_000, true) }
