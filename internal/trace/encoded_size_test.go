package trace_test

import (
	"runtime"
	"testing"

	"dcatch/internal/bench"
	"dcatch/internal/core"
	"dcatch/internal/trace"
)

// TestEncodedSizeMatchesEncode: EncodedSize counts the encoding without
// building it, on the subjects' own traces and both synthetic shapes.
func TestEncodedSizeMatchesEncode(t *testing.T) {
	traces := map[string]*trace.Trace{
		"synthetic":         bench.SyntheticTrace(3000, 1),
		"synthetic-bounded": bench.SyntheticTraceBounded(3000, 1),
	}
	for _, b := range bench.Benchmarks() {
		res, err := core.Detect(b.Workload, core.Options{Seed: b.Seed, MaxSteps: b.MaxSteps})
		if err != nil {
			t.Fatalf("%s: %v", b.ID, err)
		}
		traces[b.ID] = res.Trace
	}
	for name, tr := range traces {
		if got, want := tr.EncodedSize(), len(tr.Encode()); got != want || want == 0 {
			t.Errorf("%s: EncodedSize() = %d, len(Encode()) = %d", name, got, want)
		}
	}

	// The count must not cost what the encoding costs: Encode allocates at
	// least the encoded bytes, EncodedSize only the string table and the
	// writer's fixed buffer.
	tr := bench.SyntheticTraceBounded(50_000, 2)
	size := tr.EncodedSize()
	allocated := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	const runs = 5
	before := allocated()
	for i := 0; i < runs; i++ {
		tr.EncodedSize()
	}
	if perCall := (allocated() - before) / runs; perCall > uint64(size)/4 {
		t.Errorf("EncodedSize allocates %d bytes per call for a %d-byte encoding", perCall, size)
	}
}
