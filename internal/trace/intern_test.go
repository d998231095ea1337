package trace

import (
	"bytes"
	"fmt"
	"testing"
)

// stackyTrace builds n records cycling through `distinct` callstacks, the
// shape of a real instrumented run (few static sites, many firings).
func stackyTrace(n, distinct int) *Trace {
	c := NewCollector("p")
	for i := 0; i < n; i++ {
		s := int32(i % distinct)
		c.Emit(Rec{
			Node: "n1", Thread: 1, Ctx: 1, CtxKind: CtxRegular,
			Kind: KMemWrite, Obj: "n1/x", StaticID: s,
			Stack: []int32{s, s + 100, s + 200},
		})
	}
	return c.Trace()
}

// TestDecodeInternsStacks asserts records with equal callstacks share one
// backing array after decode, and that distinct stacks stay distinct.
func TestDecodeInternsStacks(t *testing.T) {
	tr := stackyTrace(500, 7)
	got, err := Decode(bytes.NewReader(tr.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	canon := map[int32]*int32{}
	for i := range got.Recs {
		r := &got.Recs[i]
		if len(r.Stack) != 3 {
			t.Fatalf("rec %d: stack %v", i, r.Stack)
		}
		for j, want := range []int32{r.StaticID, r.StaticID + 100, r.StaticID + 200} {
			if r.Stack[j] != want {
				t.Fatalf("rec %d: stack %v corrupted by interning", i, r.Stack)
			}
		}
		first, ok := canon[r.StaticID]
		if !ok {
			canon[r.StaticID] = &r.Stack[0]
		} else if first != &r.Stack[0] {
			t.Fatalf("rec %d: stack for static %d not interned (distinct backing arrays)", i, r.StaticID)
		}
	}
	if len(canon) != 7 {
		t.Fatalf("expected 7 distinct stacks, saw %d", len(canon))
	}
}

// TestDecodeStackAllocs proves interning decouples stack allocations from
// the record count: decoding 2000 records with 5 distinct stacks must stay
// far below one slice allocation per record.
func TestDecodeStackAllocs(t *testing.T) {
	raw := stackyTrace(2000, 5).Encode()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Decode(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
	})
	// Non-stack decode overhead (record slice growth, string table, reader)
	// is well under 200 allocations; 2000 per-record stack slices would
	// blow straight past this bound.
	if allocs > 500 {
		t.Fatalf("Decode of 2000 records took %.0f allocs; stack interning regressed", allocs)
	}
}

func BenchmarkDecodeStacks(b *testing.B) {
	for _, distinct := range []int{8, 1024} {
		raw := stackyTrace(20000, distinct).Encode()
		b.Run(fmt.Sprintf("distinct=%d", distinct), func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(bytes.NewReader(raw)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestStackIDsMatchStackKey checks the binary-keyed interner against the
// rendering it stands in for: two records share an id exactly when their
// StackKeys are equal, Key returns that rendering, and a stack seen before
// costs no allocation.
func TestStackIDsMatchStackKey(t *testing.T) {
	recs := []Rec{
		{},
		{Stack: []int32{}},
		{Stack: nil, StaticID: -1},
		{Stack: []int32{}, StaticID: -1},
		{Stack: []int32{1, 2}, StaticID: 5},
		{Stack: []int32{1, 2}, StaticID: 6},
		{Stack: []int32{1, 2, 5}, StaticID: 5},
		{Stack: []int32{-1}, StaticID: 5},
		{Stack: []int32{1}, StaticID: 2},
		{Stack: []int32{2}, StaticID: 1},
	}
	// Decoded records share stack backing arrays across static IDs.
	dec, err := Decode(bytes.NewReader(stackyTrace(40, 4).Encode()))
	if err != nil {
		t.Fatal(err)
	}
	recs = append(recs, dec.Recs...)
	var s StackIDs
	byKey := map[string]int32{}
	for i := range recs {
		r := &recs[i]
		id, key := s.ID(r), r.StackKey()
		if s.Key(id) != key {
			t.Fatalf("rec %d: Key(%d) = %q, want %q", i, id, s.Key(id), key)
		}
		if prev, ok := byKey[key]; ok && prev != id {
			t.Fatalf("rec %d: key %q got id %d, earlier %d", i, key, id, prev)
		}
		byKey[key] = id
	}
	if s.Len() != len(byKey) {
		t.Fatalf("%d ids for %d distinct keys", s.Len(), len(byKey))
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for i := range recs {
			s.ID(&recs[i])
		}
	}); allocs != 0 {
		t.Fatalf("re-interning known stacks: %v allocs, want 0", allocs)
	}
}
