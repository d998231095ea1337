package detect

import (
	"math/rand"
	"testing"

	"dcatch/internal/hb"
	"dcatch/internal/trace"
)

// scatterTrace emits a trace with many objects, stacks, and contexts so the
// sharded scan has real work to distribute and merge.
func scatterTrace(n int, seed int64) *trace.Collector {
	rng := rand.New(rand.NewSource(seed))
	c := trace.NewCollector("t")
	for i := 0; i < n; i++ {
		th := int32(1 + rng.Intn(6))
		kind := trace.KMemRead
		if rng.Intn(3) == 0 {
			kind = trace.KMemWrite
		}
		emit(c, trace.Rec{
			Node: "n", Thread: th, Ctx: th, CtxKind: trace.CtxRegular,
			Kind: kind, Obj: []string{"n/a", "n/b", "n/c", "n/d", "n/e"}[rng.Intn(5)],
			StaticID: int32(rng.Intn(12)), Stack: []int32{int32(rng.Intn(5))},
		})
	}
	return c
}

// TestFindParallelMatchesSequential asserts byte-identical reports from the
// sharded scan, including representative records and Dynamic counts for
// callstack pairs that span several objects.
func TestFindParallelMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		c := scatterTrace(300, seed)
		g := build(t, c, hb.Config{})
		seq := Find(g, Options{Parallelism: 1})
		par := Find(g, Options{Parallelism: 8})
		if len(seq.Pairs) == 0 {
			t.Fatalf("seed %d: no candidates; test is vacuous", seed)
		}
		if s, p := seq.Format(nil), par.Format(nil); s != p {
			t.Errorf("seed %d: reports diverged\nseq:\n%s\npar:\n%s", seed, s, p)
		}
		for i := range seq.Pairs {
			a, b := &seq.Pairs[i], &par.Pairs[i]
			if a.ARec != b.ARec || a.BRec != b.BRec || a.Dynamic != b.Dynamic || a.Obj != b.Obj {
				t.Errorf("seed %d pair %d: representatives diverged: %+v vs %+v", seed, i, a, b)
			}
		}
	}
}

// TestSubsampleKeepsContextEndpoints covers the truncation fix: the final
// output must retain the first and last access of EVERY context — the old
// tail clip could drop the kept last-accesses of late contexts.
func TestSubsampleKeepsContextEndpoints(t *testing.T) {
	c := trace.NewCollector("t")
	const contexts = 10
	const perCtx = 100
	// Round-robin so every context's last access sits near the trace tail.
	for k := 0; k < perCtx; k++ {
		for th := int32(1); th <= contexts; th++ {
			mem(c, th, th, trace.KMemWrite, "n/hot", 100+th)
		}
	}
	tr := c.Trace()
	idxs := make([]int, len(tr.Recs))
	for i := range idxs {
		idxs[i] = i
	}
	const max = 30
	out := subsample(tr, idxs, max)
	if len(out) > max {
		t.Fatalf("subsample returned %d > max %d", len(out), max)
	}
	kept := map[int]bool{}
	for _, i := range out {
		kept[i] = true
	}
	for th := 0; th < contexts; th++ {
		first := th                       // first round-robin row
		last := len(idxs) - contexts + th // last round-robin row
		if !kept[first] {
			t.Errorf("context %d first access %d dropped", th, first)
		}
		if !kept[last] {
			t.Errorf("context %d last access %d dropped", th, last)
		}
	}
}

// TestSubsampleManyContextsKeepsAllEndpoints: when the mandatory boundary
// accesses alone exceed max, they are all still returned.
func TestSubsampleManyContextsKeepsAllEndpoints(t *testing.T) {
	c := trace.NewCollector("t")
	const contexts = 40
	for k := 0; k < 5; k++ {
		for th := int32(1); th <= contexts; th++ {
			mem(c, th, th, trace.KMemWrite, "n/hot", 100+th)
		}
	}
	tr := c.Trace()
	idxs := make([]int, len(tr.Recs))
	for i := range idxs {
		idxs[i] = i
	}
	out := subsample(tr, idxs, 20) // 2*40 mandatory > 20
	kept := map[int]bool{}
	for _, i := range out {
		kept[i] = true
	}
	for th := 0; th < contexts; th++ {
		if !kept[th] || !kept[len(idxs)-contexts+th] {
			t.Fatalf("context %d endpoint dropped under tight max", th)
		}
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
