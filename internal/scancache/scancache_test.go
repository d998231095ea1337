package scancache

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/trace"
)

// segKey derives a distinct deterministic key for tests that exercise cache
// mechanics (LRU, disk, corruption) and only need key identity, not the
// KeyTrace derivation.
func segKey(s string) Key { return Key(sha256.Sum256([]byte(s))) }

func racyTrace(n int, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
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

// scanPayload builds one real window scan over tr and returns its entry.
func scanPayload(t *testing.T, tr *trace.Trace) Entry {
	t.Helper()
	g, err := hb.Build(tr, hb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ws := detect.ScanGraph(g, detect.Options{})
	return Entry{
		Payload:  ws.Encode(),
		Backend:  g.Backend().String(),
		MemBytes: g.MemBytes(),
		Records:  len(tr.Recs),
	}
}

func TestSpecForRejectsUnexpressibleOptions(t *testing.T) {
	if _, ok := SpecFor(hb.Config{}, detect.Options{}); !ok {
		t.Fatal("default options must be cacheable")
	}
	bad := []struct {
		name string
		h    hb.Config
		d    detect.Options
	}{
		{"DisableEvent", hb.Config{DisableEvent: true}, detect.Options{}},
		{"DisableRPC", hb.Config{DisableRPC: true}, detect.Options{}},
		{"DisableSocket", hb.Config{DisableSocket: true}, detect.Options{}},
		{"DisablePush", hb.Config{DisablePush: true}, detect.Options{}},
		{"LoopReads", hb.Config{LoopReads: map[int32][]int32{1: {2}}}, detect.Options{}},
		{"SuppressPull", hb.Config{}, detect.Options{SuppressPull: true}},
	}
	for _, tc := range bad {
		if _, ok := SpecFor(tc.h, tc.d); ok {
			t.Errorf("%s: options must bypass the cache", tc.name)
		}
	}
}

func TestSpecKeySensitivity(t *testing.T) {
	tr := racyTrace(50, 1)
	base := Spec{Reach: "dense"}
	k0 := base.KeyTrace(tr)
	variants := []Spec{
		{Reach: "chain"},
		{Reach: "dense", MaxGroup: 5},
		{Reach: "dense", MemBudget: 1 << 20},
	}
	for _, v := range variants {
		if v.KeyTrace(tr) == k0 {
			t.Errorf("spec %+v collides with base", v)
		}
	}
	if base.KeyTrace(racyTrace(50, 2)) == k0 {
		t.Error("different windows collide")
	}
	if base.KeyTrace(tr) != k0 {
		t.Error("key not deterministic")
	}
	// Every hashed field must move the key: a collision here would let a
	// window that scans differently be served a stale result.
	muts := []struct {
		name string
		f    func(*trace.Trace)
	}{
		{"Seq", func(c *trace.Trace) { c.Recs[10].Seq += 1000 }},
		{"Node", func(c *trace.Trace) { c.Recs[10].Node = "m" }},
		{"Thread", func(c *trace.Trace) { c.Recs[10].Thread += 100 }},
		{"Ctx", func(c *trace.Trace) { c.Recs[10].Ctx += 100 }},
		{"CtxKind", func(c *trace.Trace) { c.Recs[10].CtxKind = trace.CtxEvent }},
		{"Kind", func(c *trace.Trace) { c.Recs[10].Kind = trace.KLockAcq }},
		{"Obj", func(c *trace.Trace) { c.Recs[10].Obj = "n/zz" }},
		{"Op", func(c *trace.Trace) { c.Recs[10].Op += 7 }},
		{"WriterSeq", func(c *trace.Trace) { c.Recs[10].WriterSeq += 7 }},
		{"StaticID", func(c *trace.Trace) { c.Recs[10].StaticID += 1 << 20 }},
		{"Stack", func(c *trace.Trace) { c.Recs[10].Stack[0]++ }},
		{"StackLen", func(c *trace.Trace) { c.Recs[10].Stack = c.Recs[10].Stack[:1] }},
		{"Queue", func(c *trace.Trace) { c.Recs[10].Queue = "n/q" }},
		{"Program", func(c *trace.Trace) { c.Program = "other" }},
		{"QueueConsumers", func(c *trace.Trace) { c.QueueConsumers["n/q"] = 2 }},
		{"Truncate", func(c *trace.Trace) { c.Recs = c.Recs[:len(c.Recs)-1] }},
	}
	for _, m := range muts {
		cp := *tr
		cp.Recs = append([]trace.Rec(nil), tr.Recs...)
		cp.Recs[10].Stack = append([]int32(nil), tr.Recs[10].Stack...)
		cp.QueueConsumers = map[string]int{}
		for q, n := range tr.QueueConsumers {
			cp.QueueConsumers[q] = n
		}
		m.f(&cp)
		if base.KeyTrace(&cp) == k0 {
			t.Errorf("%s change did not move the key", m.name)
		}
	}

	// The key must survive the wire: a worker keying the decoded request
	// body must land on the key the coordinator derived from its window
	// sub-trace.
	dec, err := trace.Decode(bytes.NewReader(tr.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	if base.KeyTrace(dec) != k0 {
		t.Error("key changed across encode/decode")
	}
}

func TestCacheMemoryHitAndEviction(t *testing.T) {
	c, err := New(Config{MaxBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ent := scanPayload(t, racyTrace(60, 3))
	key := segKey("segment")
	if _, ok := c.Get(key); ok {
		t.Fatal("hit before put")
	}
	c.Put(key, ent)
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("miss after put")
	}
	if !bytes.Equal(got.Payload, ent.Payload) || got.Backend != ent.Backend ||
		got.MemBytes != ent.MemBytes || got.Records != ent.Records {
		t.Fatal("entry mutated by cache")
	}
	// Fill far past the budget; the cache must stay bounded and keep the
	// most recent entries.
	for i := 0; i < 200; i++ {
		c.Put(segKey(fmt.Sprintf("seg-%d", i)), ent)
	}
	if c.Bytes() > c.MaxBytes() {
		t.Fatalf("bytes %d exceed budget %d", c.Bytes(), c.MaxBytes())
	}
	if c.Len() == 0 {
		t.Fatal("cache emptied itself")
	}
	if _, ok := c.Get(segKey("seg-199")); !ok {
		t.Fatal("most recent entry evicted")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{MaxBytes: 1 << 20, Dir: dir, DiskMaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ent := scanPayload(t, racyTrace(40, 4))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := segKey(fmt.Sprintf("seg-%d", i%17))
				if got, ok := c.Get(key); ok {
					if !bytes.Equal(got.Payload, ent.Payload) {
						t.Error("payload corrupted under concurrency")
						return
					}
				} else {
					c.Put(key, ent)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestDiskPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	ent := scanPayload(t, racyTrace(60, 5))
	key := segKey("persist-me")

	c1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(key, ent)
	if c1.DiskBytes() == 0 {
		t.Fatal("nothing spilled to disk")
	}

	c2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok {
		t.Fatal("entry lost across reopen")
	}
	if !bytes.Equal(got.Payload, ent.Payload) || got.Backend != ent.Backend ||
		got.MemBytes != ent.MemBytes || got.Records != ent.Records {
		t.Fatal("entry changed across reopen")
	}
	// Memory-promoted after the disk hit.
	if c2.Len() != 1 {
		t.Fatalf("disk hit not promoted to memory: len=%d", c2.Len())
	}
}

func TestDiskCorruptionDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	ent := scanPayload(t, racyTrace(60, 6))
	key := segKey("corrupt-me")

	c1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(key, ent)

	hexKey := key.String()
	path := filepath.Join(dir, hexKey[:2], hexKey)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func([]byte) []byte{
		func(b []byte) []byte { b = append([]byte(nil), b...); b[len(b)/2] ^= 0xFF; return b },
		func(b []byte) []byte { return b[:len(b)/2] },
		func(b []byte) []byte { return []byte("DCSCjunk") },
		func(b []byte) []byte { return nil },
	} {
		if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
		c2, err := New(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := c2.Get(key); ok {
			t.Fatal("corrupt file served as a hit")
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatal("corrupt file not removed")
		}
		// Rescan-and-rewrite restores the entry for the next round.
		c2.Put(key, ent)
		if got, ok := c2.Get(key); !ok || !bytes.Equal(got.Payload, ent.Payload) {
			t.Fatal("rewrite after corruption failed")
		}
		data, err = os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestDiskEvictionBySize(t *testing.T) {
	dir := t.TempDir()
	ent := scanPayload(t, racyTrace(80, 7))
	one := int64(len(encodeEntry(ent)))
	c, err := New(Config{Dir: dir, DiskMaxBytes: 3 * one})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Put(segKey(fmt.Sprintf("seg-%d", i)), ent)
	}
	if got := c.DiskBytes(); got > 3*one {
		t.Fatalf("disk bytes %d exceed budget %d", got, 3*one)
	}
	// The newest key must have survived eviction.
	c2, err := New(Config{Dir: dir, DiskMaxBytes: 3 * one})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(segKey("seg-9")); !ok {
		t.Fatal("newest entry evicted from disk")
	}
}

func TestEntryEnvelopeRoundTrip(t *testing.T) {
	ent := scanPayload(t, racyTrace(60, 8))
	got, err := DecodeEntry(encodeEntry(ent))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, ent.Payload) || got.Backend != ent.Backend ||
		got.MemBytes != ent.MemBytes || got.Records != ent.Records {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, ent)
	}
}

func TestOversizedEntrySkipped(t *testing.T) {
	c, err := New(Config{MaxBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	big := Entry{Payload: make([]byte, 1024), Backend: "dense"}
	key := segKey("big")
	c.Put(key, big)
	if _, ok := c.Get(key); ok {
		t.Fatal("oversized entry admitted")
	}
	if c.Bytes() != 0 {
		t.Fatal("oversized entry charged the budget")
	}
}

func FuzzDecodeEntry(f *testing.F) {
	tr := racyTrace(60, 9)
	g, err := hb.Build(tr, hb.Config{})
	if err != nil {
		f.Fatal(err)
	}
	ws := detect.ScanGraph(g, detect.Options{})
	valid := encodeEntry(Entry{Payload: ws.Encode(), Backend: "dense", MemBytes: 123, Records: 60})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("DCSC"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ent, err := DecodeEntry(data)
		if err != nil {
			return
		}
		// Anything accepted must re-encode to an equivalent envelope and
		// carry a payload the hardened scan decoder accepts.
		if _, err := detect.DecodeWindowScan(ent.Payload); err != nil {
			t.Fatalf("accepted envelope with rejected payload: %v", err)
		}
		again, err := DecodeEntry(encodeEntry(ent))
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(again.Payload, ent.Payload) || again.Backend != ent.Backend ||
			again.MemBytes != ent.MemBytes || again.Records != ent.Records {
			t.Fatal("envelope not canonical")
		}
	})
}

// DecodeEntry parses and fully validates an on-disk envelope: the checksum
// plus a hardened decode of the DCWS payload. FuzzDecodeEntry holds it to
// its contract: any input must either round-trip or error — never panic,
// never yield a payload the decoder rejects.
func DecodeEntry(data []byte) (Entry, error) {
	ent, err := decodeEnvelope(data)
	if err != nil {
		return Entry{}, err
	}
	if _, err := detect.DecodeWindowScan(ent.Payload); err != nil {
		return Entry{}, fmt.Errorf("scancache: payload: %w", err)
	}
	return ent, nil
}
