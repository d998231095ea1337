package minimr

import (
	"fmt"
	"testing"

	"dcatch/internal/core"
	"dcatch/internal/ir"
	"dcatch/internal/rt"
	"dcatch/internal/subjects"
	"dcatch/internal/trigger"
)

func TestCorrectRunIsClean(t *testing.T) {
	w := Workload()
	for seed := int64(1); seed <= 6; seed++ {
		res, err := rt.Run(w, rt.Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Failed() || !res.Completed {
			t.Errorf("seed %d not clean: %s", seed, res.Summary())
		}
	}
}

func TestDetectsKnownBugs(t *testing.T) {
	b := BenchMR3274()
	res, err := core.Detect(b.Workload, core.Options{Seed: b.Seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("minimr: %s", res.Summary())
	for _, bench := range []*subjects.Benchmark{b, BenchMR4637()} {
		found, missing := bench.DetectedBugs(res.Final)
		if found != len(bench.Bugs) {
			t.Fatalf("%s bugs found %d/%d; missing %v\nfinal report:\n%s",
				bench.ID, found, len(bench.Bugs), missing, res.Final.Format(b.Workload.Program))
		}
	}
	for _, kp := range b.Benigns {
		if !res.Final.HasStaticPair(kp.A, kp.B) {
			t.Errorf("benign pair missing from report: %s", kp.Desc)
		}
	}
	if res.Stats.SPCallstack >= res.Stats.TACallstack {
		t.Errorf("static pruning removed nothing: TA=%d SP=%d", res.Stats.TACallstack, res.Stats.SPCallstack)
	}
	// The Register put vs getTask read pair (Fig. 2's benign race) is
	// pull-based custom synchronization: present before the LP stage,
	// suppressed after it.
	p := b.Workload.Program
	put := subjects.WriteOf(p, "AM.registerTask", "jMap")
	get := subjects.ReadOf(p, "AM.getTask", "jMap")
	if !res.TA.HasStaticPair(put, get) {
		t.Error("put/get pair missing from raw trace analysis")
	}
	if res.Final.HasStaticPair(put, get) {
		t.Error("put/get pull-sync pair not suppressed by LP stage")
	}
	if res.Stats.PullPairs == 0 {
		t.Error("no pull-sync pairs discovered")
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
	b := BenchMR3274()
	res, err := core.Detect(b.Workload, core.Options{Seed: b.Seed})
	if err != nil {
		t.Fatal(err)
	}
	vals := core.ValidateAll(res, core.TriggerOptions{MaxSteps: 150_000})
	for _, v := range vals {
		t.Logf("%s -> %s", v.Pair.Describe(b.Workload.Program), v.Summary())
	}
	checks := []struct {
		kp   subjects.KnownPair
		want trigger.Verdict
	}{
		{b.Bugs[0], trigger.VerdictHarmful},
		{b.Benigns[0], trigger.VerdictBenign},
		{BenchMR4637().Bugs[0], trigger.VerdictHarmful},
	}
	for _, c := range checks {
		got, ok := verdictOf(vals, c.kp)
		if !ok {
			t.Errorf("%s: not validated", c.kp.Desc)
		} else if got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.kp.Desc, got, c.want)
		}
	}
}

func TestHangManifestsUnderBadOrder(t *testing.T) {
	// Force the UnRegister remove to win the race directly: the container
	// must hang exactly as in paper Fig. 1.
	b := BenchMR3274()
	p := b.Workload.Program
	read := subjects.ReadOf(p, "AM.getTask", "jMap")
	remove := subjects.RemoveOf(p, "AM.unregisterTask", "jMap")
	ctrl, err := trigger.NewController([]trigger.Point{
		{StaticID: remove, Instance: 1},
		{StaticID: read, Instance: 1},
	}, []int{0, 1}) // remove first
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run(b.Workload, rt.Options{Seed: b.Seed, MaxSteps: 60_000, Trigger: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hang {
		t.Fatalf("remove-first order did not hang: %s", res.Summary())
	}
}

func TestStructure(t *testing.T) {
	// Fig. 4 shape: the AM has RPC threads plus one pool per queue.
	d := Workload().StructureDump()
	for _, want := range []string{"node am", "event queue events (single-consumer", "event queue committer (multi-consumer"} {
		if !contains(d, want) {
			t.Errorf("structure dump missing %q:\n%s", want, d)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestGroundTruthResolvable(t *testing.T) {
	// All ground-truth IDs must resolve to real statements.
	for _, bench := range []*subjects.Benchmark{BenchMR3274(), BenchMR4637()} {
		p := bench.Workload.Program
		for _, kp := range append(append([]subjects.KnownPair{}, bench.Bugs...), bench.Benigns...) {
			for _, id := range []int32{kp.A, kp.B} {
				if st := p.Stmt(int(id)); st == nil {
					t.Errorf("%s: unresolvable static ID %d", kp.Desc, id)
				} else if _, isIR := st.(ir.Stmt); !isIR {
					t.Errorf("%s: bad statement type", kp.Desc)
				}
			}
		}
	}
}
