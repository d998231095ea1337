package detect_test

import (
	"bytes"
	"testing"

	"dcatch/internal/bench"
	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/trace"
)

// BenchmarkFind times detect.Find alone on a bounded-context synthetic trace
// of 200 k records, decoded from its wire bytes so records share stack
// backing arrays as they do behind every decoder. The graph is built once;
// each iteration is the epoch sweep, stack interning and report sort.
//
//	go test -run '^$' -bench Find ./internal/detect
func BenchmarkFind(b *testing.B) {
	tr, err := trace.Decode(bytes.NewReader(bench.SyntheticTraceBounded(200_000, 1).Encode()))
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
}
