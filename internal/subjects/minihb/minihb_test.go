package minihb

import (
	"fmt"
	"strings"
	"testing"

	"dcatch/internal/core"
	"dcatch/internal/rt"
	"dcatch/internal/subjects"
	"dcatch/internal/trace"
	"dcatch/internal/trigger"
)

func TestCorrectRunsAreClean(t *testing.T) {
	for _, w := range []*rt.Workload{WorkloadEnableExpire(), WorkloadSplitAlter()} {
		for seed := int64(1); seed <= 5; seed++ {
			res, err := rt.Run(w, rt.Options{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			if res.Failed() || !res.Completed {
				t.Errorf("%s seed %d not clean: %s", w.Name, seed, res.Summary())
			}
		}
	}
}

func TestFig3ChainNotReported(t *testing.T) {
	// The eight-rule HB chain of Fig. 3 orders W (regionsToOpen write in
	// assignRegion) before R (regionsToOpen read in the watch handler);
	// DCatch must NOT report them as concurrent.
	b := BenchHB4729()
	res, err := core.Detect(b.Workload, core.Options{Seed: b.Seed})
	if err != nil {
		t.Fatal(err)
	}
	p := b.Workload.Program
	w := subjects.WriteOf(p, "HM.assignRegion", "regionsToOpen")
	r := subjects.ReadOf(p, "HM.onRegionZK", "regionsToOpen")
	// Same-flow instances must be HB ordered: the first W record and the
	// first R record belong to the same region-open chain.
	wi, ri := -1, -1
	for i := range res.Trace.Recs {
		rec := &res.Trace.Recs[i]
		if wi < 0 && rec.StaticID == w && rec.Kind == trace.KMemWrite {
			wi = i
		}
		if ri < 0 && rec.StaticID == r && rec.Kind == trace.KMemRead {
			ri = i
		}
	}
	if wi < 0 || ri < 0 {
		t.Fatal("Fig. 3 records missing from trace")
	}
	if !res.Graph.HappensBefore(wi, ri) {
		t.Fatalf("Fig. 3 W (rec %d) not ordered before R (rec %d): the 8-rule chain broke", wi, ri)
	}
}

func TestDetectsKnownBugs(t *testing.T) {
	for _, bench := range []*subjects.Benchmark{BenchHB4729(), BenchHB4539()} {
		res, err := core.Detect(bench.Workload, core.Options{Seed: bench.Seed})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %s", bench.ID, res.Summary())
		found, missing := bench.DetectedBugs(res.Final)
		if found != len(bench.Bugs) {
			t.Fatalf("%s bugs found %d/%d; missing %v\nreport:\n%s",
				bench.ID, found, len(bench.Bugs), missing, res.Final.Format(bench.Workload.Program))
		}
		for _, kp := range bench.Benigns {
			if !res.Final.HasStaticPair(kp.A, kp.B) {
				t.Errorf("%s benign pair missing: %s", bench.ID, kp.Desc)
			}
		}
		if res.Stats.SPCallstack >= res.Stats.TACallstack {
			t.Errorf("%s: pruning removed nothing (TA=%d SP=%d)",
				bench.ID, res.Stats.TACallstack, res.Stats.SPCallstack)
		}
	}
}

func verdictOf(vals []trigger.Validation, kp subjects.KnownPair) (trigger.Verdict, bool) {
	a, b := kp.A, kp.B
	if a > b {
		a, b = b, a
	}
	key := fmt.Sprintf("%d|%d", a, b)
	for _, v := range vals {
		if v.Pair.StaticKey() == key {
			return v.Verdict, true
		}
	}
	return 0, false
}

func TestTriggerVerdicts(t *testing.T) {
	for _, bench := range []*subjects.Benchmark{BenchHB4729(), BenchHB4539()} {
		res, err := core.Detect(bench.Workload, core.Options{Seed: bench.Seed})
		if err != nil {
			t.Fatal(err)
		}
		vals := core.ValidateAll(res, core.TriggerOptions{MaxSteps: 150_000})
		for _, v := range vals {
			t.Logf("%s: %s -> %s", bench.ID, v.Pair.Describe(bench.Workload.Program), v.Summary())
		}
		for _, kp := range bench.Bugs {
			if got, ok := verdictOf(vals, kp); !ok {
				t.Errorf("%s: bug not validated: %s", bench.ID, kp.Desc)
			} else if got != trigger.VerdictHarmful {
				t.Errorf("%s: %s verdict %s, want harmful", bench.ID, kp.Desc, got)
			}
		}
		for _, kp := range bench.Benigns {
			if got, ok := verdictOf(vals, kp); !ok {
				t.Errorf("%s: benign not validated: %s", bench.ID, kp.Desc)
			} else if got != trigger.VerdictBenign {
				t.Errorf("%s: %s verdict %s, want benign", bench.ID, kp.Desc, got)
			}
		}
	}
}

func TestRule2PlacementUsed(t *testing.T) {
	// The regionState pair's accesses execute in rs1's single RPC worker
	// thread; the placement analysis must move both requests to the RPC
	// callers (§5.2 rule 2).
	bench := BenchHB4539()
	res, err := core.Detect(bench.Workload, core.Options{Seed: bench.Seed})
	if err != nil {
		t.Fatal(err)
	}
	vals := core.ValidateAll(res, core.TriggerOptions{MaxSteps: 150_000})
	kp := bench.Benigns[0]
	a, b := kp.A, kp.B
	if a > b {
		a, b = b, a
	}
	key := fmt.Sprintf("%d|%d", a, b)
	for _, v := range vals {
		if v.Pair.StaticKey() != key {
			continue
		}
		moved := v.Placement[0].Moved + " " + v.Placement[1].Moved
		if !strings.Contains(moved, "RPC caller") {
			t.Fatalf("rule 2 not applied: placements %+v", v.Placement)
		}
		return
	}
	t.Fatal("regionState pair not validated")
}

func TestExpireFirstCrashesMaster(t *testing.T) {
	bench := BenchHB4729()
	p := bench.Workload.Program
	ctrl, err := trigger.NewController([]trigger.Point{
		{StaticID: subjects.ZKDeleteOf(p, "HM.expireServer"), Instance: 1},
		{StaticID: subjects.ZKDeleteOf(p, "HM.doEnable"), Instance: 1},
	}, []int{0, 1}) // expiry delete first
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run(bench.Workload, rt.Options{Seed: bench.Seed, MaxSteps: 150_000, Trigger: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	crashed := false
	for _, f := range res.Failures {
		if f.Kind == rt.FailUncatchable && f.Node == Master {
			crashed = true
		}
	}
	if !crashed {
		t.Fatalf("expiry-first order did not crash the master: %s", res.Summary())
	}
}

func TestRule3PlacementUsed(t *testing.T) {
	// The HB-4539 alter/split pair executes inside critical sections of
	// the same master lock; placement rule 3 must move both requests
	// before the critical sections (§5.2).
	bench := BenchHB4539()
	res, err := core.Detect(bench.Workload, core.Options{Seed: bench.Seed})
	if err != nil {
		t.Fatal(err)
	}
	vals := core.ValidateAll(res, core.TriggerOptions{MaxSteps: 150_000})
	kp := bench.Bugs[0]
	got, ok := verdictOf(vals, kp)
	if !ok || got != trigger.VerdictHarmful {
		t.Fatalf("4539 pair verdict %v (found=%v), want harmful", got, ok)
	}
	a, b := kp.A, kp.B
	if a > b {
		a, b = b, a
	}
	key := fmt.Sprintf("%d|%d", a, b)
	for _, v := range vals {
		if v.Pair.StaticKey() == key {
			moved := v.Placement[0].Moved + " " + v.Placement[1].Moved
			if !strings.Contains(moved, "critical section") {
				t.Fatalf("rule 3 not applied: %+v", v.Placement)
			}
			return
		}
	}
	t.Fatal("pair not found")
}

func TestPerfWorkloadClean(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		res, err := rt.Run(WorkloadPerf(30), rt.Options{Seed: seed, MaxSteps: 3_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() || !res.Completed {
			t.Fatalf("perf workload seed %d: %s", seed, res.Summary())
		}
	}
}
