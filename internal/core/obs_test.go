package core

import (
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/subjects"
	"dcatch/internal/subjects/minica"
	"dcatch/internal/subjects/minihb"
	"dcatch/internal/subjects/minimr"
	"dcatch/internal/subjects/minizk"
)

// table4 returns the seven subjects of the paper's Table 4.
func table4() []*subjects.Benchmark {
	return []*subjects.Benchmark{
		minica.BenchCA1011(), minihb.BenchHB4539(), minihb.BenchHB4729(),
		minimr.BenchMR3274(), minimr.BenchMR4637(), minizk.BenchZK1144(), minizk.BenchZK1270(),
	}
}

// attemptRE matches one attempt of a Validation.Summary line; the optional
// group is a step-budget hang.
var attemptRE = regexp.MustCompile(`\[first=\d arrived=(true|false) forced=(\d+) timeout=(\d+) (HANG after \d+ steps: step budget)?`)

// TestTriggerSignals checks the triggering module's quality counters on the
// seven subjects against what the validation summaries print: one
// trigger.attempts.* count per attempt, by the same precedence as
// attemptOutcome, and trigger.steps the sum of the attempts' steps.
func TestTriggerSignals(t *testing.T) {
	rec := obs.New()
	want := map[string]int64{}
	var steps int64
	for _, b := range table4() {
		res, err := Detect(b.Workload, Options{Seed: b.Seed, MaxSteps: b.MaxSteps})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range ValidateAll(res, TriggerOptions{MaxSteps: 200_000, Obs: rec}) {
			for _, at := range v.Attempts {
				steps += int64(at.Result.Steps)
			}
			for _, m := range attemptRE.FindAllStringSubmatch(v.Summary(), -1) {
				forced, _ := strconv.Atoi(m[2])
				timeout, _ := strconv.Atoi(m[3])
				switch {
				case m[4] != "":
					want["budget"]++
				case timeout > 0:
					want["timeout"]++
				case forced > 0:
					want["forced"]++
				case m[1] == "true":
					want["arrived"]++
				default:
					want["untriggered"]++
				}
			}
		}
	}
	got := rec.Counters()
	if got["trigger.validations"] != 18 {
		t.Errorf("trigger.validations = %d, want 18", got["trigger.validations"])
	}
	if got["trigger.steps"] != steps {
		t.Errorf("trigger.steps = %d, attempts ran %d steps", got["trigger.steps"], steps)
	}
	var total int64
	for _, k := range []string{"arrived", "forced", "timeout", "budget", "untriggered"} {
		if got["trigger.attempts."+k] != want[k] {
			t.Errorf("trigger.attempts.%s = %d, summaries show %d", k, got["trigger.attempts."+k], want[k])
		}
		total += want[k]
	}
	if total != 36 || want["budget"] != 4 || want["timeout"] != 4 {
		t.Errorf("summaries show %d attempts, %d budget, %d timeout; want 36, 4, 4", total, want["budget"], want["timeout"])
	}
}

// TestPipelineReleasesGoroutines runs detection and validation on the seven
// subjects — every kind of rt.Run the product makes, step-budget hangs,
// patience and forced releases among them — and checks that no goroutine
// outlives them.
func TestPipelineReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, b := range table4() {
		res, err := Detect(b.Workload, Options{Seed: b.Seed, MaxSteps: b.MaxSteps})
		if err != nil {
			t.Fatal(err)
		}
		ValidateAll(res, TriggerOptions{MaxSteps: 200_000})
	}
	// A thread goroutine that handed the baton on is counted until it has
	// returned, so poll briefly.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	if n > base {
		t.Fatalf("%d goroutines after the pipeline, %d before", n, base)
	}
}

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
