package core

import (
	"reflect"
	"strings"
	"testing"

	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/subjects/minimr"
)

// TestObservabilityDeterminism locks the core guarantee of the obs
// instrumentation: recording on or off, the rendered reports are
// byte-identical.
func TestObservabilityDeterminism(t *testing.T) {
	w := toy(t)
	base, err := Detect(w, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := base.Final.Format(w.Program) + "\n" + base.Summary()

	rec := obs.New()
	res, err := Detect(w, Options{Seed: 3, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Final.Format(w.Program) + "\n" + res.Summary(); got != want {
		t.Errorf("report diverged with recording on:\n--- want\n%s\n--- got\n%s", want, got)
	}
	if rec.Counters()["hb.edges.total"] == 0 {
		t.Error("no hb.edges.total counter recorded")
	}
	if len(rec.Spans(1)) == 0 {
		t.Error("no stage spans recorded")
	}
}

// TestStatsFieldsPopulated asserts every core.Stats field carries a real
// measurement after a full pipeline run on the MR-3274 benchmark, so new
// fields cannot silently stay zero.
func TestStatsFieldsPopulated(t *testing.T) {
	b := minimr.BenchMR3274()
	res, err := Detect(b.Workload, Options{Seed: b.Seed, MaxSteps: b.MaxSteps})
	if err != nil {
		t.Fatal(err)
	}
	if res.OOM {
		t.Fatal("unexpected OOM")
	}
	v := reflect.ValueOf(res.Stats)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.IsZero() {
			t.Errorf("Stats.%s is zero after a full MR-3274 run", v.Type().Field(i).Name)
		}
	}
}

// TestExplain exercises the provenance surface: reported pairs print
// concurrency evidence, pruned pairs print the removing stage, and
// out-of-range indices fail.
func TestExplain(t *testing.T) {
	b := minimr.BenchMR3274()
	res, err := Detect(b.Workload, Options{Seed: b.Seed, MaxSteps: b.MaxSteps})
	if err != nil {
		t.Fatal(err)
	}
	nReported := len(res.Final.Pairs)
	if nReported == 0 {
		t.Fatal("MR-3274 produced no reports")
	}
	total := res.ExplainTotal()
	if total <= nReported {
		t.Fatalf("no pruned pairs to explain: total %d, reported %d", total, nReported)
	}

	first, err := res.Explain(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"reported", "no happens-before path", "common causal ancestor"} {
		if !strings.Contains(first, want) {
			t.Errorf("Explain(0) lacks %q:\n%s", want, first)
		}
	}

	pruned, err := res.Explain(nReported) // first pruned pair
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pruned, "pruned by") {
		t.Errorf("Explain(%d) lacks prune stage:\n%s", nReported, pruned)
	}

	if _, err := res.Explain(total); err == nil {
		t.Errorf("Explain(%d) accepted an out-of-range index", total)
	}
	if _, err := res.Explain(-1); err == nil {
		t.Error("Explain(-1) accepted a negative index")
	}
}

// TestExplainChunked verifies the graceful degradation when per-window
// graphs were discarded by the chunked fallback.
func TestExplainChunked(t *testing.T) {
	w := toy(t)
	res, err := Detect(w, Options{Seed: 3, HB: hb.Config{MemBudget: 150}, ChunkSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Chunked {
		t.Fatal("chunked fallback did not engage")
	}
	if res.ExplainTotal() == 0 {
		t.Skip("no candidates under chunking")
	}
	out, err := res.Explain(0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "unavailable") && !strings.Contains(out, "pruned by") {
		t.Errorf("chunked Explain(0) should note missing HB evidence or a prune reason:\n%s", out)
	}
}
