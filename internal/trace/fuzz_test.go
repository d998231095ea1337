package trace

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"unsafe"
)

// fuzzSeedTrace builds a small but representative trace covering strings,
// queues, stacks and every varint field, so the fuzzer starts from a valid
// encoding and mutates toward interesting corruptions.
func fuzzSeedTrace() *Trace {
	t := &Trace{
		Program:        "fuzz-seed",
		QueueConsumers: map[string]int{"n1/q": 1, "n2/q": 2},
	}
	for i := 0; i < 8; i++ {
		t.Recs = append(t.Recs, Rec{
			Seq:       uint64(i + 1),
			Node:      "n1",
			Thread:    int32(i % 3),
			Ctx:       int32(i),
			CtxKind:   CtxKind(i % 5),
			Kind:      Kind(i % int(numKinds)),
			Obj:       "obj",
			Op:        uint64(i),
			WriterSeq: uint64(i),
			StaticID:  int32(i - 1), // includes -1
			Stack:     []int32{1, 2, int32(i)},
			Queue:     "n1/q",
		})
	}
	return t
}

// FuzzDecode feeds arbitrary bytes to the binary trace decoder. Decode is
// the dcatch-serve upload surface: a malformed or truncated body must come
// back as an error, never as a panic or an attacker-sized allocation (the
// fuzz engine itself catches panics; the explicit checks assert that
// successful decodes are self-consistent and re-encodable).
func FuzzDecode(f *testing.F) {
	seed := fuzzSeedTrace().Encode()
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // truncated mid-stream
	f.Add(seed[:5])           // header only
	f.Add([]byte("DCTR"))     // magic without version
	f.Add([]byte{})
	// Forged huge counts after a valid prefix.
	f.Add(append(append([]byte{}, seed[:6]...), 0xff, 0xff, 0xff, 0xff, 0x7f))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful decode must be internally consistent and survive a
		// round trip through the encoder.
		for i := range tr.Recs {
			_ = tr.Recs[i].String()
		}
		_ = tr.Stats()
		re, err := Decode(bytes.NewReader(tr.Encode()))
		if err != nil {
			t.Fatalf("re-decode of re-encoded trace failed: %v", err)
		}
		if len(re.Recs) != len(tr.Recs) {
			t.Fatalf("round trip changed record count: %d != %d", len(re.Recs), len(tr.Recs))
		}
	})
}

// FuzzStreamDecode feeds the same bytes to the decoder in one piece and cut
// at fuzzer-chosen points (each byte of splits is a segment length, cycled;
// zero feeds the rest). Where the cuts fall must not matter: the segmented
// decode yields the one-shot trace, or fails where and how the one-shot
// decode fails.
func FuzzStreamDecode(f *testing.F) {
	seed := fuzzSeedTrace().Encode()
	f.Add(seed, []byte{})
	f.Add(seed, []byte{1})
	f.Add(seed, []byte{3, 50, 1, 0})
	f.Add(seed[:len(seed)/2], []byte{7})
	f.Add(append(append([]byte{}, seed[:6]...), 0xff, 0xff, 0xff, 0xff, 0x7f), []byte{2})
	f.Add(append(append([]byte{}, seed...), "trailing"...), []byte{40})

	f.Fuzz(func(t *testing.T, data, splits []byte) {
		decode := func(seg []int) (*StreamDecoder, *Trace, error) {
			d, err := feedSegments(data, seg)
			if err != nil {
				return d, nil, err
			}
			tr, err := d.Finish()
			return d, tr, err
		}
		seg := make([]int, len(splits))
		for i, b := range splits {
			seg[i] = int(b)
		}
		one, want, wantErr := decode(nil)
		cut, got, gotErr := decode(seg)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("segments %v: error %v, one shot: %v", seg, gotErr, wantErr)
		}
		if cut.Records() != one.Records() || cut.Consumed() != one.Consumed() {
			t.Fatalf("segments %v: %d records / %d bytes, one shot: %d / %d",
				seg, cut.Records(), cut.Consumed(), one.Records(), one.Consumed())
		}
		if wantErr == nil {
			tracesEqual(t, got, want)
		}
	})
}

// allocatedBy returns the bytes f allocates (runtime.MemStats.TotalAlloc is
// cumulative, so a collection during f does not hide anything).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeForgedCountsNoHugeAlloc decodes inputs whose headers claim huge
// string-table and record counts with no matching payload. They must fail,
// and the claim must not be what sizes the allocations: capacity is reserved
// from the bytes actually supplied.
func TestDecodeForgedCountsNoHugeAlloc(t *testing.T) {
	valid := fuzzSeedTrace().Encode()
	for _, cut := range []int{6, 10, 14, 20} {
		if cut > len(valid) {
			break
		}
		forged := append(append([]byte{}, valid[:cut]...),
			0xff, 0xff, 0xff, 0x7f) // ~256M varint where a count may sit
		if _, err := Decode(bytes.NewReader(forged)); err == nil {
			t.Errorf("cut=%d: forged-count input decoded without error", cut)
		}
	}

	head := []byte("DCTR\x01\x00\x00") // empty program, no queues
	record := []byte{0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	forgedStrings := binary.AppendUvarint(append([]byte{}, head...), 1<<24)
	forgedRecords := binary.AppendUvarint(append(append([]byte{}, head...), 1, 0), 1<<28)
	for i := 0; i < 5; i++ {
		forgedRecords = append(forgedRecords, record...)
	}
	for name, in := range map[string][]byte{"strings": forgedStrings, "records": forgedRecords} {
		if len(in) >= 100 {
			t.Fatalf("%s: forged input is %d bytes", name, len(in))
		}
		var err error
		if n := allocatedBy(func() { _, err = Decode(bytes.NewReader(in)) }); n > 1<<20 {
			t.Errorf("%s: Decode of a %d-byte forged input allocated %d bytes", name, len(in), n)
		}
		if err == nil {
			t.Errorf("%s: forged-count input decoded without error", name)
		}
		d := NewStreamDecoder()
		if n := allocatedBy(func() { _, err = d.Feed(in) }); n > 1<<20 {
			t.Errorf("%s: Feed of a %d-byte forged input allocated %d bytes", name, len(in), n)
		}
		if err != nil {
			t.Errorf("%s: Feed rejected a stream that is only incomplete: %v", name, err)
		}
		if _, err := d.Finish(); err == nil {
			t.Errorf("%s: Finish accepted a forged count with no payload", name)
		}
	}
	if d, _ := feedSegments(forgedRecords, nil); d.Records() != 5 {
		t.Errorf("forged record count: decoded %d of the 5 records present", d.Records())
	}
}

// TestDecodeReservesOnce guards the reservation rule: with the whole input in
// hand the record slice is allocated once at its final size, so a one-shot
// decode costs little more than the records plus a copy of the input.
func TestDecodeReservesOnce(t *testing.T) {
	const n = 20000
	raw := stackyTrace(n, 8).Encode()
	var tr *Trace
	var err error
	got := allocatedBy(func() { tr, err = Decode(bytes.NewReader(raw)) })
	if err != nil || len(tr.Recs) != n {
		t.Fatalf("Decode: %d records, %v", len(tr.Recs), err)
	}
	recs := uint64(n * unsafe.Sizeof(Rec{}))
	if limit := recs*16/10 + uint64(len(raw)); got > limit {
		t.Errorf("one-shot Decode allocated %d bytes for %d bytes of records and %d of input (limit %d)",
			got, recs, len(raw), limit)
	}
	if cap(tr.Recs) != n {
		t.Errorf("record slice has cap %d for %d records", cap(tr.Recs), n)
	}
}
