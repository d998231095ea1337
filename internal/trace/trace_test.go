package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Trace {
	c := NewCollector("toy")
	c.SetQueueInfo("am/events", 1)
	c.SetQueueInfo("rm/events", 3)
	c.Emit(Rec{Node: "am", Thread: 1, Ctx: 1, CtxKind: CtxRegular, Kind: KThreadCreate, Op: 2, StaticID: 10, Stack: []int32{3}})
	c.Emit(Rec{Node: "am", Thread: 2, Ctx: 2, CtxKind: CtxRegular, Kind: KThreadBegin, Op: 2, StaticID: -1})
	c.Emit(Rec{Node: "am", Thread: 2, Ctx: 2, CtxKind: CtxRegular, Kind: KMemWrite, Obj: "am/jMap[j1]", StaticID: 12, Stack: []int32{3, 7}})
	c.Emit(Rec{Node: "nm", Thread: 3, Ctx: 4, CtxKind: CtxRPC, Kind: KMemRead, Obj: "am/jMap[j1]", WriterSeq: 3, StaticID: 20})
	c.Emit(Rec{Node: "am", Thread: 2, Ctx: 2, CtxKind: CtxRegular, Kind: KLockAcq, Obj: "am/lk", StaticID: 13})
	c.Emit(Rec{Node: "am", Thread: 1, Ctx: 5, CtxKind: CtxEvent, Kind: KEventBegin, Op: 9, Queue: "am/events", StaticID: -1})
	c.Emit(Rec{Node: "zkc", Thread: 4, Ctx: 6, CtxKind: CtxWatch, Kind: KZKUpdate, Obj: "/region/r1", Op: 44, StaticID: 30})
	c.Emit(Rec{Node: "n2", Thread: 5, Ctx: 7, CtxKind: CtxMsg, Kind: KSockSend, Op: 77, StaticID: 31})
	return c.Trace()
}

func TestCollectorAssignsSeq(t *testing.T) {
	tr := sample()
	for i, r := range tr.Recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("rec %d has Seq %d", i, r.Seq)
		}
	}
}

func TestStats(t *testing.T) {
	s := sample().Stats()
	if s.Total != 8 {
		t.Fatalf("Total = %d, want 8", s.Total)
	}
	if s.Mem != 2 || s.Thread != 2 || s.Lock != 1 || s.Event != 1 || s.ZKPush != 1 || s.Socket != 1 {
		t.Fatalf("bad breakdown: %+v", s)
	}
	if s.Mem+s.Thread+s.Lock+s.Event+s.ZKPush+s.Socket+s.RPC+s.Other != s.Total {
		t.Fatalf("breakdown does not sum to total: %+v", s)
	}
}

func TestSingleConsumer(t *testing.T) {
	tr := sample()
	if !tr.SingleConsumer("am/events") {
		t.Fatal("am/events should be single consumer")
	}
	if tr.SingleConsumer("rm/events") || tr.SingleConsumer("missing") {
		t.Fatal("multi/missing queue reported single consumer")
	}
}

func TestPerThread(t *testing.T) {
	tr := sample()
	pt := tr.PerThread()
	if len(pt[2]) != 3 {
		t.Fatalf("thread 2 has %d records, want 3", len(pt[2]))
	}
	last := -1
	for _, i := range pt[2] {
		if i <= last {
			t.Fatal("PerThread not in order")
		}
		last = i
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := sample()
	data := tr.Encode()
	got, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Program != tr.Program {
		t.Fatalf("Program = %q, want %q", got.Program, tr.Program)
	}
	if !reflect.DeepEqual(got.QueueConsumers, tr.QueueConsumers) {
		t.Fatalf("queues differ: %v vs %v", got.QueueConsumers, tr.QueueConsumers)
	}
	if len(got.Recs) != len(tr.Recs) {
		t.Fatalf("rec count %d, want %d", len(got.Recs), len(tr.Recs))
	}
	for i := range tr.Recs {
		a, b := tr.Recs[i], got.Recs[i]
		// Normalize nil vs empty stacks.
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

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Fatal("decoded empty input")
	}
	if _, err := Decode(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("decoded bad magic")
	}
	data := sample().Encode()
	// Truncations at every prefix length must error, not panic or succeed.
	for n := 4; n < len(data)-1; n += 7 {
		if _, err := Decode(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("decoded truncation at %d bytes", n)
		}
	}
	// Corrupt version byte.
	bad := append([]byte(nil), data...)
	bad[4] = 99
	if _, err := Decode(bytes.NewReader(bad)); err == nil {
		t.Fatal("decoded bad version")
	}
}

func randRec(rng *rand.Rand, seq uint64) Rec {
	objs := []string{"", "a/x", "a/x[k]", "zk:/r/1", "node-2/map[key with spaces]"}
	nodes := []string{"am", "nm", "rm", "client"}
	r := Rec{
		Seq:      seq,
		Node:     nodes[rng.Intn(len(nodes))],
		Thread:   int32(rng.Intn(50)),
		Ctx:      int32(rng.Intn(100)),
		CtxKind:  CtxKind(rng.Intn(5)),
		Kind:     Kind(rng.Intn(int(numKinds))),
		Obj:      objs[rng.Intn(len(objs))],
		Op:       rng.Uint64() >> uint(rng.Intn(60)),
		StaticID: int32(rng.Intn(1000)) - 1,
	}
	if rng.Intn(2) == 0 {
		r.WriterSeq = uint64(rng.Intn(100))
	}
	for i := 0; i < rng.Intn(4); i++ {
		r.Stack = append(r.Stack, int32(rng.Intn(2000)))
	}
	if r.Kind == KEventBegin {
		r.Queue = "n/q"
	}
	return r
}

// Property: encode/decode round-trips arbitrary traces.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCollector("fuzz")
		c.SetQueueInfo("n/q", 1+rng.Intn(3))
		want := make([]Rec, 0, n)
		for i := 0; i < int(n); i++ {
			r := randRec(rng, uint64(i+1))
			c.Emit(r)
			r.Seq = uint64(i + 1)
			want = append(want, r)
		}
		tr := c.Trace()
		got, err := Decode(bytes.NewReader(tr.Encode()))
		if err != nil {
			return false
		}
		if len(got.Recs) != len(want) {
			return false
		}
		for i := range want {
			a, b := want[i], got.Recs[i]
			if len(a.Stack) == 0 {
				a.Stack = nil
			}
			if len(b.Stack) == 0 {
				b.Stack = nil
			}
			if !reflect.DeepEqual(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestKindAndCtxStrings(t *testing.T) {
	if KMemRead.String() != "MemRead" || KZKPushed.String() != "ZKPushed" {
		t.Fatal("Kind.String wrong")
	}
	if Kind(200).String() == "" {
		t.Fatal("unknown kind empty")
	}
	if CtxRPC.String() != "rpc" || CtxRegular.String() != "regular" || CtxWatch.String() != "watch" {
		t.Fatal("CtxKind.String wrong")
	}
}

func TestStackKeyDistinguishes(t *testing.T) {
	a := Rec{Stack: []int32{1, 2}, StaticID: 5}
	b := Rec{Stack: []int32{1, 3}, StaticID: 5}
	c := Rec{Stack: []int32{1, 2}, StaticID: 5}
	if a.StackKey() == b.StackKey() {
		t.Fatal("different stacks share key")
	}
	if a.StackKey() != c.StackKey() {
		t.Fatal("equal stacks have different keys")
	}
	// The rendering is fmt's "%v@%d" byte for byte: report pairs, their
	// rank order and every golden embed it.
	for _, r := range []Rec{
		{},
		{Stack: nil, StaticID: 7},
		{Stack: []int32{}, StaticID: 7},
		{Stack: []int32{0}, StaticID: -1},
		{Stack: []int32{-3, 4, -5}, StaticID: 12},
		{Stack: []int32{math.MaxInt32, math.MinInt32}, StaticID: math.MaxInt32},
		{Stack: []int32{1, 22, 333, 4444, 55555, 666666, 7777777, 88888888, 999999999, 1, 2, 3}, StaticID: math.MinInt32},
	} {
		if got, want := r.StackKey(), fmt.Sprintf("%v@%d", r.Stack, r.StaticID); got != want {
			t.Errorf("StackKey(%#v, %d) = %q, want %q", r.Stack, r.StaticID, got, want)
		}
	}
}

func TestEncodedSizeGrows(t *testing.T) {
	c := NewCollector("g")
	small := c.Trace().EncodedSize()
	c2 := NewCollector("g")
	for i := 0; i < 1000; i++ {
		c2.Emit(Rec{Node: "n", Kind: KMemRead, Obj: "n/x", StaticID: int32(i)})
	}
	big := c2.Trace().EncodedSize()
	if big <= small {
		t.Fatalf("size did not grow: %d <= %d", big, small)
	}
}

func TestEncodeJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Program string
		Records []struct {
			Kind string
			Node string
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded.Program != "toy" || len(decoded.Records) != 8 {
		t.Fatalf("JSON content wrong: %+v", decoded)
	}
	if decoded.Records[0].Kind != "ThreadCreate" {
		t.Fatalf("kind not symbolic: %q", decoded.Records[0].Kind)
	}
}

// TestWindowChunkEdges pins Window's subslice semantics at chunk
// boundaries: the paths that slice a trace into overlapping windows (batch
// chunking, streaming replay, the cluster coordinator, scan-cache keying)
// all assume a window is a zero-copy view that shares metadata, covers
// exactly [start,end), and cannot clobber the parent through appends.
func TestWindowChunkEdges(t *testing.T) {
	c := NewCollector("w")
	c.SetQueueInfo("n/q", 1)
	for i := 0; i < 10; i++ {
		c.Emit(Rec{Node: "n", Thread: 1, Ctx: 1, Kind: KMemWrite, Obj: "n/x", StaticID: int32(i)})
	}
	tr := c.Trace()

	w := tr.Window(3, 7)
	if len(w.Recs) != 4 || w.Recs[0].Seq != tr.Recs[3].Seq || w.Recs[3].Seq != tr.Recs[6].Seq {
		t.Fatalf("Window(3,7) covers wrong records: %+v", w.Recs)
	}
	if w.Program != tr.Program || w.QueueConsumers["n/q"] != 1 {
		t.Fatal("window does not share trace metadata")
	}
	if &w.Recs[0] != &tr.Recs[3] {
		t.Fatal("window is not a zero-copy view")
	}
	// The three-index slice caps the window at end: appending to the view
	// must reallocate, never overwrite the parent's record at end.
	if cap(w.Recs) != 4 {
		t.Fatalf("window cap %d leaks past end", cap(w.Recs))
	}
	w.Recs = append(w.Recs, Rec{StaticID: 99})
	if tr.Recs[7].StaticID == 99 {
		t.Fatal("append through a window clobbered the parent trace")
	}

	// Edge windows: empty at either end, full span, and single-record.
	if got := tr.Window(0, 0); len(got.Recs) != 0 {
		t.Fatalf("Window(0,0) has %d records", len(got.Recs))
	}
	if got := tr.Window(10, 10); len(got.Recs) != 0 {
		t.Fatalf("Window(n,n) has %d records", len(got.Recs))
	}
	if got := tr.Window(0, 10); len(got.Recs) != 10 {
		t.Fatalf("Window(0,n) has %d records", len(got.Recs))
	}
	if got := tr.Window(9, 10); len(got.Recs) != 1 || got.Recs[0].Seq != tr.Recs[9].Seq {
		t.Fatalf("Window(n-1,n) wrong: %+v", got.Recs)
	}

	// Adjacent overlapping chunk windows (stride 3, size 4) must tile the
	// trace so the overlap region appears in both views, byte for byte.
	a, b := tr.Window(0, 4), tr.Window(3, 7)
	if a.Recs[3].Seq != b.Recs[0].Seq {
		t.Fatal("overlap record differs between adjacent windows")
	}
}

// PerThread splits record indices by thread, preserving order; the paper's
// tracer writes one file per thread, and this view validates per-thread
// ordering invariants.
func (t *Trace) PerThread() map[int32][]int {
	m := map[int32][]int{}
	for i := range t.Recs {
		th := t.Recs[i].Thread
		m[th] = append(m[th], i)
	}
	return m
}
