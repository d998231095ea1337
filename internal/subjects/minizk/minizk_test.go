package minizk

import (
	"fmt"
	"strings"
	"testing"

	"dcatch/internal/core"
	"dcatch/internal/rt"
	"dcatch/internal/subjects"
	"dcatch/internal/trigger"
)

func TestCorrectRunsAreClean(t *testing.T) {
	for _, w := range []*rt.Workload{WorkloadZK1270(), WorkloadZK1144(), WorkloadSafe()} {
		for seed := int64(1); seed <= 5; seed++ {
			res, err := rt.Run(w, rt.Options{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			if res.Failed() || !res.Completed {
				t.Errorf("%s seed %d not clean: %s", w.Name, seed, res.Summary())
			}
			logs := strings.Join(res.LogLines, "\n")
			if !strings.Contains(logs, "leader ready") {
				t.Errorf("%s seed %d: leader did not come up: %v", w.Name, seed, res.LogLines)
			}
		}
	}
}

func TestDetectsKnownBugs(t *testing.T) {
	for _, bench := range []*subjects.Benchmark{BenchZK1270(), BenchZK1144()} {
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
		// The waitForEpoch serial false positive must be reported (the
		// HB rules cannot infer the quorum barrier, §7.2).
		for _, kp := range bench.Serials {
			if !res.Final.HasStaticPair(kp.A, kp.B) {
				t.Errorf("%s: serial FP pair unexpectedly absent: %s", bench.ID, kp.Desc)
			}
		}
	}
}

func TestSafeVariant(t *testing.T) {
	// The epoch fix is an HB fix: initializing currentEpoch before the
	// leader's notifications puts it on the causal chain to the
	// followers' replies, so the pair must disappear from the report.
	res, err := core.Detect(WorkloadSafe(), core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Workload.Program
	ep := subjects.WriteOf(p, "ZKS.main", "currentEpoch")
	er := subjects.ReadOf(p, "ZKS.onFollowerInfo", "currentEpoch")
	if res.Final.HasStaticPair(ep, er) {
		t.Errorf("safe variant still reports the epoch race:\n%s", res.Final.Format(p))
	}
	// The election fix is a tolerance fix (requeue): the state race still
	// exists — trace analysis reports it — but the handler's fallback
	// path no longer reaches a failure instruction, so static pruning
	// correctly discards it.
	st := subjects.WriteOf(p, "ZKS.main", "state")
	rd := subjects.ReadOf(p, "ZKS.onElected", "state")
	if !res.TA.HasStaticPair(st, rd) {
		t.Error("requeue-fixed election race missing from raw trace analysis")
	}
	if res.Final.HasStaticPair(st, rd) {
		t.Error("requeue-fixed election race survived static pruning despite having no failure impact")
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
	for _, bench := range []*subjects.Benchmark{BenchZK1270(), BenchZK1144()} {
		res, err := core.Detect(bench.Workload, core.Options{Seed: bench.Seed})
		if err != nil {
			t.Fatal(err)
		}
		vals := core.ValidateAll(res, core.TriggerOptions{MaxSteps: bench.MaxSteps})
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
		for _, kp := range bench.Serials {
			if got, ok := verdictOf(vals, kp); !ok {
				t.Errorf("%s: serial pair not validated: %s", bench.ID, kp.Desc)
			} else if got != trigger.VerdictSerial {
				t.Errorf("%s: %s verdict %s, want serial", bench.ID, kp.Desc, got)
			}
		}
	}
}

// WorkloadSafe has neither race: the no-bug control.
func WorkloadSafe() *rt.Workload {
	return workload("minizk-safe", Config{SafeElection: true, SafeEpoch: true})
}
