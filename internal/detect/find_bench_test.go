package detect_test

import (
	"bytes"
	"fmt"
	"testing"

	"dcatch/internal/bench"
	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/trace"
)

// BenchmarkFind times detect.Find alone on bounded-context synthetic traces,
// decoded from their wire bytes so records share stack backing arrays as
// they do behind every decoder. The graph is built once per case; each
// iteration is the access prepass, the epoch sweep, stack interning and the
// report sort. At 200 k records almost no location reaches the MaxGroup cap;
// at 500 k (the full-500k ledger trace) hot locations are subsampled, so
// that case carries subsample's cost.
//
//	go test -run '^$' -bench Find ./internal/detect
func BenchmarkFind(b *testing.B) {
	for _, n := range []int{200_000, 500_000} {
		b.Run(fmt.Sprintf("bounded-%dk", n/1000), func(b *testing.B) {
			tr, err := trace.Decode(bytes.NewReader(bench.SyntheticTraceBounded(n, 1).Encode()))
			if err != nil {
				b.Fatal(err)
			}
			g, err := hb.Build(tr, hb.Config{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var candidates int
			for i := 0; i < b.N; i++ {
				candidates = len(detect.Find(g, detect.Options{}).Pairs)
			}
			b.ReportMetric(float64(candidates), "candidates")
		})
	}
}
