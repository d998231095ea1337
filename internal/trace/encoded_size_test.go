package trace_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"dcatch/internal/bench"
	"dcatch/internal/core"
	"dcatch/internal/testtrace"
	"dcatch/internal/trace"
)

// TestEncodedSizeMatchesEncode: EncodedSize counts the encoding without
// building it, on the subjects' own traces and both synthetic shapes.
func TestEncodedSizeMatchesEncode(t *testing.T) {
	traces := map[string]*trace.Trace{
		"synthetic":         testtrace.SyntheticTrace(3000, 1),
		"synthetic-bounded": testtrace.SyntheticTraceBounded(3000, 1),
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

	// The count must not cost what the encoding costs: nothing is written,
	// so EncodedSize allocates its string table (index map plus table slice,
	// both proportional to the distinct strings) and nothing per record.
	tr := testtrace.SyntheticTraceBounded(50_000, 2)
	distinct := tableSize(tr)
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
	if perCall, limit := (allocated()-before)/runs, uint64(160*distinct+1024); perCall > limit {
		t.Errorf("EncodedSize allocates %d bytes per call for %d records over %d distinct strings (limit %d)",
			perCall, len(tr.Recs), distinct, limit)
	}

	encodedSizeOnBoundaries(t)
}

// tableSize counts the entries of tr's string table.
func tableSize(tr *trace.Trace) int {
	distinct := map[string]bool{}
	for i := range tr.Recs {
		r := &tr.Recs[i]
		distinct[r.Node], distinct[r.Obj], distinct[r.Queue] = true, true, true
	}
	return len(distinct)
}

// varintEdges are the values on either side of every 7-bit boundary of the
// varint encoding, where an encoded length changes.
func varintEdges() []uint64 {
	edges := []uint64{0, math.MaxUint64}
	for shift := 7; shift < 64; shift += 7 {
		edges = append(edges, 1<<shift-1, 1<<shift)
	}
	return edges
}

// adversarialTrace draws a trace from the shapes where a size computed by
// arithmetic could part from the bytes written: empty strings, StaticID -1,
// negative thread and context ids (encoded through uint32), values at every
// varint length boundary in every numeric field, stacks long enough for a
// two-byte depth, and string tables past the one- and two-byte index ranges.
func adversarialTrace(rng *rand.Rand, records, strings int) *trace.Trace {
	edges := varintEdges()
	edge := func() uint64 { return edges[rng.Intn(len(edges))] }
	str := func() string {
		if k := rng.Intn(strings + 1); k > 0 {
			return fmt.Sprintf("s%d", k)
		}
		return ""
	}
	tr := &trace.Trace{
		Program:        string(make([]byte, []int{0, 1, 127, 128}[rng.Intn(4)])),
		QueueConsumers: map[string]int{},
	}
	for i := rng.Intn(4); i > 0; i-- {
		tr.QueueConsumers[str()] = int(int64(edge()))
	}
	for i := 0; i < records; i++ {
		r := trace.Rec{
			Seq: edge(), Node: str(), Thread: int32(edge()), Ctx: int32(edge()),
			CtxKind: trace.CtxKind(rng.Intn(256)), Kind: trace.Kind(rng.Intn(256)),
			Obj: str(), Op: edge(), WriterSeq: edge(),
			StaticID: []int32{-1, 0, 126, 127, math.MaxInt32, math.MinInt32}[rng.Intn(6)],
			Queue:    str(),
		}
		if depth := []int{0, 0, 1, 3, 130}[rng.Intn(5)]; depth > 0 {
			r.Stack = make([]int32, depth)
			for j := range r.Stack {
				r.Stack[j] = int32(edge())
			}
		}
		tr.Recs = append(tr.Recs, r)
	}
	return tr
}

// encodedSizeOnBoundaries: EncodedSize is arithmetic that mirrors the encoder
// field by field, so the two are held together by a property over traces
// built to sit on every boundary — and the encoding must still decode to the
// trace it came from.
func encodedSizeOnBoundaries(t *testing.T) {
	check := func(tr *trace.Trace) bool {
		enc := tr.Encode()
		if got := tr.EncodedSize(); got != len(enc) {
			t.Errorf("EncodedSize() = %d, len(Encode()) = %d (%d records)", got, len(enc), len(tr.Recs))
			return false
		}
		back, err := trace.Decode(bytes.NewReader(enc))
		if err != nil || len(back.Recs) != len(tr.Recs) {
			t.Errorf("decode of a %d-record adversarial trace: %v", len(tr.Recs), err)
			return false
		}
		for i := range tr.Recs {
			a, b := tr.Recs[i], back.Recs[i]
			if len(a.Stack) == 0 {
				a.Stack = nil
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("rec %d: decoded %+v, encoded %+v", i, b, a)
				return false
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(1))
	check(&trace.Trace{}) // empty, nil queue map
	for _, c := range []struct{ records, strings, table int }{
		{300, 200, 128},       // two-byte string indices
		{20000, 30000, 16384}, // three-byte string indices
	} {
		tr := adversarialTrace(rng, c.records, c.strings)
		if n := tableSize(tr); n < c.table {
			t.Fatalf("adversarial trace has %d table entries, want at least %d", n, c.table)
		}
		check(tr)
	}
	prop := func(seed int64, records uint8, strings uint16) bool {
		return check(adversarialTrace(rand.New(rand.NewSource(seed)), int(records), int(strings)))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
