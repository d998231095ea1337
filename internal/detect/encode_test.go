package detect

import (
	"bytes"
	"math/rand"
	"testing"

	"dcatch/internal/hb"
	"dcatch/internal/trace"
)

// racyTrace builds a trace with many unsynchronized conflicting accesses
// spread across the whole record range, so a chunked analysis produces
// candidates in every window and the same callstack pairs recur across
// windows (exercising the cross-window dedup path of the merge).
func racyTrace(n int) *trace.Trace {
	rng := rand.New(rand.NewSource(7))
	c := trace.NewCollector("racy")
	for i := 0; i < n; i++ {
		th := int32(1 + rng.Intn(4))
		kind := trace.KMemRead
		if rng.Intn(2) == 0 {
			kind = trace.KMemWrite
		}
		c.Emit(trace.Rec{
			Node: "n", Thread: th, Ctx: th, CtxKind: trace.CtxRegular,
			Kind: kind, Obj: []string{"n/a", "n/b", "n/c"}[rng.Intn(3)],
			StaticID: int32(10 + rng.Intn(6)),
			Stack:    []int32{int32(100 + rng.Intn(5)), int32(rng.Intn(3))},
		})
	}
	return c.Trace()
}

func chunkedGraphs(t *testing.T, tr *trace.Trace, size int) []hb.Chunk {
	t.Helper()
	chunks, err := hb.BuildChunked(tr, hb.ChunkConfig{ChunkSize: size})
	if err != nil {
		t.Fatal(err)
	}
	return chunks
}

func TestWindowScanRoundTrip(t *testing.T) {
	tr := racyTrace(600)
	for _, ch := range chunkedGraphs(t, tr, 200) {
		ws := ScanGraph(ch.Graph, Options{})
		if ws.Candidates() == 0 {
			t.Fatalf("window at %d: no candidates; generator too tame", ch.Start)
		}
		enc := ws.Encode()
		got, err := DecodeWindowScan(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Candidates() != ws.Candidates() {
			t.Fatalf("candidates: got %d, want %d", got.Candidates(), ws.Candidates())
		}
		// The decoded scan must merge to the same report as the original.
		want := NewChunkMerger(Options{})
		want.Merge(ws, ch.Start)
		have := NewChunkMerger(Options{})
		have.Merge(got, ch.Start)
		w, h := want.Report().Format(nil), have.Report().Format(nil)
		if w != h {
			t.Fatalf("round-tripped report differs:\nwant:\n%s\ngot:\n%s", w, h)
		}
	}
}

func TestWindowScanEncodeCanonical(t *testing.T) {
	tr := racyTrace(400)
	chunks := chunkedGraphs(t, tr, 400)
	a := ScanGraph(chunks[0].Graph, Options{}).Encode()
	b := ScanGraph(chunks[0].Graph, Options{}).Encode()
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same scan differ")
	}
	// A decoded scan re-encodes to the same bytes: the format is a fixpoint.
	ws, err := DecodeWindowScan(a)
	if err != nil {
		t.Fatal(err)
	}
	if c := ws.Encode(); !bytes.Equal(a, c) {
		t.Fatal("decode+re-encode changed the bytes")
	}
}

// TestClusterMergeMatchesFindChunked is the wire-level half of the cluster
// byte-identity guarantee: scanning each window, shipping it through the
// binary format, and folding the decoded scans in window order must render
// the same report FindChunked produces over the same chunks.
func TestClusterMergeMatchesFindChunked(t *testing.T) {
	tr := racyTrace(2000)
	chunks := chunkedGraphs(t, tr, 500)
	if len(chunks) < 3 {
		t.Fatalf("want several windows, got %d", len(chunks))
	}
	want := FindChunked(chunks, Options{}).Format(nil)

	m := NewChunkMerger(Options{})
	for _, ch := range chunks {
		ws, err := DecodeWindowScan(ScanGraph(ch.Graph, Options{}).Encode())
		if err != nil {
			t.Fatal(err)
		}
		m.Merge(ws, ch.Start)
	}
	if got := m.Report().Format(nil); got != want {
		t.Fatalf("wire-merged report differs from FindChunked:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestDecodeWindowScanRejectsCorruption(t *testing.T) {
	tr := racyTrace(300)
	chunks := chunkedGraphs(t, tr, 300)
	valid := ScanGraph(chunks[0].Graph, Options{}).Encode()

	corrupt := func(name string, mutate func([]byte) []byte) {
		data := mutate(append([]byte(nil), valid...))
		if _, err := DecodeWindowScan(data); err == nil {
			t.Errorf("%s: decode accepted corrupt payload", name)
		}
	}
	corrupt("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	corrupt("bad version", func(b []byte) []byte { b[4] = 99; return b })
	corrupt("trailing byte", func(b []byte) []byte { return append(b, 0) })
	corrupt("forged table count", func(b []byte) []byte {
		// Replace the stack count varint with a huge value: must be refused
		// before any proportional allocation.
		return append(b[:5], 0xff, 0xff, 0xff, 0xff, 0x7f)
	})
	// Every strict prefix is truncated: must error, never panic.
	for i := 0; i < len(valid); i++ {
		if _, err := DecodeWindowScan(valid[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
}

func FuzzWindowScanDecode(f *testing.F) {
	tr := racyTrace(300)
	chunks, err := hb.BuildChunked(tr, hb.ChunkConfig{ChunkSize: 150})
	if err != nil {
		f.Fatal(err)
	}
	for _, ch := range chunks {
		f.Add(ScanGraph(ch.Graph, Options{}).Encode())
	}
	f.Add([]byte("DCWS"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ws, err := DecodeWindowScan(data)
		if err != nil {
			return
		}
		// Whatever decodes must survive the full consumer path: re-encoding
		// is canonical and stable, and merging must not panic.
		enc := ws.Encode()
		again, err := DecodeWindowScan(enc)
		if err != nil {
			t.Fatalf("re-encode of accepted payload does not decode: %v", err)
		}
		if again.Candidates() != ws.Candidates() {
			t.Fatalf("candidates changed across re-encode: %d != %d", again.Candidates(), ws.Candidates())
		}
		m := NewChunkMerger(Options{})
		m.Merge(ws, 0)
		m.Report()
	})
}
