package detect

import (
	"sync"
	"testing"
)

// TestStaticsConcurrent hammers the memoized static-pair set from many
// goroutines, including across a Pairs append that invalidates the memo.
// Run under -race (CI does) this locks the mutex-guarded rebuild.
func TestStaticsConcurrent(t *testing.T) {
	rep := &Report{}
	for i := int32(0); i < 64; i++ {
		rep.Pairs = append(rep.Pairs, Pair{AStatic: i, BStatic: i % 7})
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if rep.StaticCount() == 0 {
					t.Error("static count dropped to zero")
					return
				}
				rep.HasStaticPair(int32(i%64), int32(i%7))
				_ = rep.StaticKeys()
			}
		}(w)
	}
	wg.Wait()

	before := rep.StaticCount()
	rep.Pairs = append(rep.Pairs, Pair{AStatic: 1000, BStatic: 1001})
	if got := rep.StaticCount(); got != before+1 {
		t.Fatalf("memo not invalidated on append: %d, want %d", got, before+1)
	}
	if !rep.HasStaticPair(1001, 1000) {
		t.Fatal("appended pair not visible")
	}
}

// TestCallstackKeyCollision is the regression test for the old
// `AStack + "||" + BStack` dedup keys: two different pairs whose joined
// renderings coincide must keep distinct identities.
func TestCallstackKeyCollision(t *testing.T) {
	p1 := Pair{AStack: "x||y", BStack: "z"}
	p2 := Pair{AStack: "x", BStack: "y||z"}
	if p1.AStack+"||"+p1.BStack != p2.AStack+"||"+p2.BStack {
		t.Fatal("test premise broken: joined strings should collide")
	}
	if p1.CallstackKey() == p2.CallstackKey() {
		t.Fatalf("CallstackKey collided: %+v vs %+v", p1.CallstackKey(), p2.CallstackKey())
	}
	m := map[CallstackKey]int{p1.CallstackKey(): 1, p2.CallstackKey(): 2}
	if len(m) != 2 {
		t.Fatalf("map folded distinct keys: %v", m)
	}
}

// TestStaticKeysCached verifies the StaticKeys memo: repeated calls return
// the same backing slice, and growing the report invalidates it.
func TestStaticKeysCached(t *testing.T) {
	r := &Report{Pairs: []Pair{
		{AStatic: 2, BStatic: 1},
		{AStatic: 1, BStatic: 2}, // same unordered static pair
		{AStatic: 3, BStatic: 4},
	}}
	first := r.StaticKeys()
	want := []string{"1|2", "3|4"}
	if len(first) != len(want) || first[0] != want[0] || first[1] != want[1] {
		t.Fatalf("StaticKeys = %v, want %v", first, want)
	}
	second := r.StaticKeys()
	if &first[0] != &second[0] {
		t.Fatal("StaticKeys rebuilt despite unchanged report")
	}
	r.Pairs = append(r.Pairs, Pair{AStatic: 9, BStatic: 9})
	grown := r.StaticKeys()
	if len(grown) != 3 || grown[2] != "9|9" {
		t.Fatalf("StaticKeys after growth = %v, want 3 keys ending in 9|9", grown)
	}
	if r.StaticCount() != 3 {
		t.Fatalf("StaticCount = %d, want 3", r.StaticCount())
	}
}

// TestStaticSetCacheTracksAppends: the precomputed static-pair set must
// refresh when pairs are appended (core.DetectMulti grows Final in place).
func TestStaticSetCacheTracksAppends(t *testing.T) {
	r := &Report{Pairs: []Pair{{AStatic: 1, BStatic: 2}}}
	if !r.HasStaticPair(2, 1) || r.StaticCount() != 1 {
		t.Fatal("initial set wrong")
	}
	r.Pairs = append(r.Pairs, Pair{AStatic: 3, BStatic: 4})
	if !r.HasStaticPair(3, 4) || r.StaticCount() != 2 {
		t.Fatal("cache did not refresh after append")
	}
	if keys := r.StaticKeys(); len(keys) != 2 || keys[0] != "1|2" || keys[1] != "3|4" {
		t.Fatalf("StaticKeys = %v", keys)
	}
}
