package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// randomTrace builds a randomized trace for the stream-decoder tests.
func randomTrace(seed int64, n int) *Trace {
	rng := rand.New(rand.NewSource(seed))
	c := NewCollector("stream-fuzz")
	c.SetQueueInfo("n/q", 1+rng.Intn(3))
	for i := 0; i < n; i++ {
		c.Emit(randRec(rng, uint64(i+1)))
	}
	return c.Trace()
}

// tracesEqual compares two decoded traces field by field, normalizing nil
// vs empty stacks the way the round-trip tests do.
func tracesEqual(t *testing.T, got, want *Trace) {
	t.Helper()
	if got.Program != want.Program {
		t.Fatalf("Program = %q, want %q", got.Program, want.Program)
	}
	if !reflect.DeepEqual(got.QueueConsumers, want.QueueConsumers) {
		t.Fatalf("queues differ: %v vs %v", got.QueueConsumers, want.QueueConsumers)
	}
	if len(got.Recs) != len(want.Recs) {
		t.Fatalf("rec count %d, want %d", len(got.Recs), len(want.Recs))
	}
	for i := range want.Recs {
		a, b := want.Recs[i], got.Recs[i]
		if len(a.Stack) == 0 {
			a.Stack = nil
		}
		if len(b.Stack) == 0 {
			b.Stack = nil
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("rec %d differs:\n got %+v\nwant %+v", i, b, a)
		}
	}
}

// feedSegments feeds data to a fresh decoder in segments of the given sizes,
// cycling through them (a non-positive size feeds the rest).
func feedSegments(data []byte, seg []int) (*StreamDecoder, error) {
	d := NewStreamDecoder()
	for k := 0; len(data) > 0; k++ {
		sz := len(data)
		if len(seg) > 0 && seg[k%len(seg)] > 0 {
			sz = min(sz, seg[k%len(seg)])
		}
		if _, err := d.Feed(data[:sz]); err != nil {
			return d, err
		}
		data = data[sz:]
	}
	return d, nil
}

// Decode runs through the stream decoder, so the oracle for both is the
// trace that was encoded: every segmentation — one shot, the pathological
// byte at a time, and a single cut at every offset of a small trace, which
// crosses every varint, string and record boundary — must reproduce it
// field by field.
func TestStreamDecoderEquivalence(t *testing.T) {
	check := func(src *Trace, data []byte, seg []int) {
		t.Helper()
		d, err := feedSegments(data, seg)
		if err != nil {
			t.Fatalf("n=%d seg=%v Feed: %v", len(src.Recs), seg, err)
		}
		got, err := d.Finish()
		if err != nil {
			t.Fatalf("n=%d seg=%v Finish: %v", len(src.Recs), seg, err)
		}
		tracesEqual(t, got, src)
		if d.Consumed() != int64(len(data)) || d.BufferedBytes() != 0 {
			t.Fatalf("n=%d seg=%v consumed %d of %d bytes, %d buffered",
				len(src.Recs), seg, d.Consumed(), len(data), d.BufferedBytes())
		}
	}
	for _, n := range []int{0, 1, 7, 200} {
		src := randomTrace(int64(n)+1, n)
		data := src.Encode()
		got, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		tracesEqual(t, got, src)
		for _, seg := range [][]int{
			nil,  // one shot
			{1},  // byte at a time
			{13}, // small fixed segments
			{5, 64, 1, 7, 4096},
		} {
			check(src, data, seg)
		}
	}
	src := randomTrace(99, 7)
	data := src.Encode()
	for cut := 1; cut < len(data); cut++ {
		check(src, data, []int{cut, 0})
	}
}

// A feed cut mid-record must leave the decoder resumable: the already
// complete records are visible, Finish reports truncation, and feeding the
// remaining bytes completes the trace exactly.
func TestStreamDecoderMidRecordResume(t *testing.T) {
	want := randomTrace(42, 50)
	data := want.Encode()

	// Find a cut point strictly inside a record: feed byte by byte and stop
	// at a prefix where the header is done but the next record is partial.
	probe := NewStreamDecoder()
	cut := 0
	for i := 0; i < len(data); i++ {
		if _, err := probe.Feed(data[i : i+1]); err != nil {
			t.Fatalf("probe feed: %v", err)
		}
		if probe.HeaderDone() && probe.Records() == 10 && probe.BufferedBytes() > 0 {
			cut = i + 1
			break
		}
	}
	if cut == 0 {
		t.Fatal("found no mid-record cut point")
	}

	d := NewStreamDecoder()
	if _, err := d.Feed(data[:cut]); err != nil {
		t.Fatalf("Feed prefix: %v", err)
	}
	if d.Done() {
		t.Fatal("decoder done on a truncated prefix")
	}
	if d.Records() != 10 {
		t.Fatalf("prefix decoded %d records, want 10", d.Records())
	}
	if _, err := d.Finish(); err == nil {
		t.Fatal("Finish accepted a mid-record truncation")
	}
	// The failed Finish is not fatal: the decoder resumes from the retained
	// partial-record tail.
	if _, err := d.Feed(data[cut:]); err != nil {
		t.Fatalf("Feed remainder: %v", err)
	}
	got, err := d.Finish()
	if err != nil {
		t.Fatalf("Finish after resume: %v", err)
	}
	tracesEqual(t, got, want)
}

// Corrupt inputs must fail with an error, never panic, and the error must be
// sticky across further feeds.
func TestStreamDecoderErrors(t *testing.T) {
	d := NewStreamDecoder()
	if _, err := d.Feed([]byte("NOPE....")); err == nil {
		t.Fatal("accepted bad magic")
	}
	if _, err := d.Feed([]byte("more")); err == nil {
		t.Fatal("error not sticky")
	}

	data := randomTrace(7, 20).Encode()
	bad := append([]byte(nil), data...)
	bad[4] = 99
	d = NewStreamDecoder()
	if _, err := d.Feed(bad); err == nil {
		t.Fatal("accepted bad version")
	}

	// Trailing garbage after the declared record count is ignored.
	d = NewStreamDecoder()
	if _, err := d.Feed(append(append([]byte(nil), data...), "garbage"...)); err != nil {
		t.Fatalf("trailing bytes rejected: %v", err)
	}
	if _, err := d.Finish(); err != nil {
		t.Fatalf("Finish with trailing bytes: %v", err)
	}
}

// Bytes after the last declared record are dropped, not buffered: a small
// trace followed by any amount of padding must leave the decoder holding
// nothing but the trace.
func TestStreamDecoderDropsTrailingBytes(t *testing.T) {
	src := randomTrace(3, 10)
	data := src.Encode()
	junk := bytes.Repeat([]byte{0xff}, 64<<10)

	d := NewStreamDecoder()
	// The first padding arrives in the same segment as the last record.
	if _, err := d.Feed(append(append([]byte(nil), data...), junk[:100]...)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if n, err := d.Feed(junk); n != 0 || err != nil {
			t.Fatalf("Feed after Done = %d, %v", n, err)
		}
		if d.BufferedBytes() != 0 {
			t.Fatalf("decoder holds %d trailing bytes after %d padded feeds", d.BufferedBytes(), i+1)
		}
	}
	if d.Consumed() != int64(len(data)) {
		t.Fatalf("consumed %d bytes, trace is %d", d.Consumed(), len(data))
	}
	got, err := d.Finish()
	if err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, got, src)
}
