package bench

import (
	"strings"
	"testing"

	"dcatch/internal/core"
	"dcatch/internal/trigger"
)

func TestTable3Inventory(t *testing.T) {
	out := Table3()
	for _, id := range []string{"CA-1011", "HB-4539", "HB-4729", "MR-3274", "MR-4637", "ZK-1144", "ZK-1270"} {
		if !strings.Contains(out, id) {
			t.Errorf("Table 3 missing %s:\n%s", id, out)
		}
	}
}

func TestTable4AllDetectedWithAccuracy(t *testing.T) {
	rows, err := Table4Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	totalBug, totalOther := 0, 0
	for _, r := range rows {
		if !r.Detected {
			t.Errorf("%s: known bugs not all detected", r.ID)
		}
		if r.BugS == 0 {
			t.Errorf("%s: no harmful report", r.ID)
		}
		if r.Untriggered > 0 {
			t.Errorf("%s: %d untriggered reports", r.ID, r.Untriggered)
		}
		totalBug += r.BugS
		totalOther += r.BenignS + r.SerialS
	}
	// Paper shape: about one third of the reports are false positives —
	// harmful reports must dominate.
	if totalBug <= totalOther {
		t.Errorf("harmful reports (%d) do not dominate benign+serial (%d)", totalBug, totalOther)
	}
}

func TestTable5PruningShape(t *testing.T) {
	rows, err := Table5Rows()
	if err != nil {
		t.Fatal(err)
	}
	taSum, lpSum := 0, 0
	for _, r := range rows {
		if !(r.TAS >= r.SPS && r.SPS >= r.LPS) {
			t.Errorf("%s: stages not monotone: %+v", r.ID, r)
		}
		if !(r.TAC >= r.SPC && r.SPC >= r.LPC) {
			t.Errorf("%s: callstack stages not monotone: %+v", r.ID, r)
		}
		taSum += r.TAC
		lpSum += r.LPC
	}
	// Paper shape: pruning removes the large majority of raw candidates.
	if lpSum*2 >= taSum {
		t.Errorf("pruning too weak: TA=%d final=%d", taSum, lpSum)
	}
	// Loop-sync analysis prunes something beyond static pruning somewhere.
	lpHelped := false
	for _, r := range rows {
		if r.LPS < r.SPS {
			lpHelped = true
		}
	}
	if !lpHelped {
		t.Error("LP stage never pruned anything")
	}
}

func TestTable8FullTracingShape(t *testing.T) {
	rows, err := Table8Rows()
	if err != nil {
		t.Fatal(err)
	}
	ooms := 0
	for _, r := range rows {
		if r.TraceBytes < r.SelectiveSize {
			t.Errorf("%s: full trace smaller than selective", r.ID)
		}
		if r.OutOfMemory {
			ooms++
		}
	}
	// Paper shape: the larger workloads cannot be analyzed unselectively.
	if ooms < 2 {
		t.Errorf("only %d OOM rows; want the big workloads to blow the budget", ooms)
	}
	for _, r := range rows {
		if (r.ID == "MR-3274" || r.ID == "MR-4637" || r.ID == "CA-1011") && !r.OutOfMemory {
			t.Errorf("%s: expected OOM under unselective tracing", r.ID)
		}
	}
}

func TestTable9AblationShape(t *testing.T) {
	rows, err := Table9Rows()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]Table9Row{}
	for _, r := range rows {
		byID[r.ID] = r
	}
	// Ignoring RPC records must hurt the RPC-heavy benchmarks.
	for _, id := range []string{"MR-3274", "MR-4637", "HB-4539"} {
		c := byID[id].Cells["RPC"]
		if c[0]+c[1] == 0 {
			t.Errorf("%s: RPC ablation had no effect", id)
		}
	}
	// Ignoring socket records must hurt the socket-based benchmarks.
	for _, id := range []string{"CA-1011", "ZK-1144", "ZK-1270"} {
		c := byID[id].Cells["Socket"]
		if c[0]+c[1] == 0 {
			t.Errorf("%s: socket ablation had no effect", id)
		}
	}
	// Ignoring push notifications must hurt the ZooKeeper-coordinated
	// HBase benchmark.
	if c := byID["HB-4729"].Cells["Push"]; c[0]+c[1] == 0 {
		t.Error("HB-4729: push ablation had no effect")
	}
	// Benchmarks that never use a mechanism must be unaffected by its
	// ablation (socket for MR, RPC/event for ZK).
	for _, id := range []string{"MR-3274", "MR-4637"} {
		if c := byID[id].Cells["Socket"]; c[0]+c[1] != 0 {
			t.Errorf("%s: socket ablation affected an RPC-only system", id)
		}
	}
	for _, id := range []string{"ZK-1144", "ZK-1270"} {
		if c := byID[id].Cells["RPC"]; c[0]+c[1] != 0 {
			t.Errorf("%s: RPC ablation affected a socket-only system", id)
		}
	}
}

func TestTable8ChunkedRecoversOOMRows(t *testing.T) {
	out, err := Table8Chunked()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "OOM") {
		t.Fatalf("chunked fallback left OOM rows:\n%s", out)
	}
	if !strings.Contains(out, "chunked") {
		t.Fatalf("no row used the chunked fallback:\n%s", out)
	}
}

// The trigger request placement ablation EXPERIMENTS.md cites (analyzed vs
// naive, §7.2); the §3.2.2 reachability representation benchmarks live in
// internal/hb.
//
//	go test -run '^$' -bench TriggerPlacement ./internal/bench

// BenchmarkTriggerPlacementAnalyzed validates every HB-4539 report with the
// §5.2 placement analysis (the regionState pair's accesses share the region
// server's single RPC worker thread, so placement decides triggerability).
func BenchmarkTriggerPlacementAnalyzed(b *testing.B) {
	benchmarkPlacement(b, false)
}

// BenchmarkTriggerPlacementNaive validates with requests attached directly
// to the racing accesses — the baseline the paper reports failing for 23 of
// 35 true races (§7.2). The benchmark reports how many reports each mode
// confirms via the "confirmed" metric.
func BenchmarkTriggerPlacementNaive(b *testing.B) {
	benchmarkPlacement(b, true)
}

func benchmarkPlacement(b *testing.B, naive bool) {
	var res *core.Result
	for _, bm := range Benchmarks() {
		if bm.ID == "HB-4539" {
			r, err := core.Detect(bm.Workload, core.Options{Seed: bm.Seed})
			if err != nil {
				b.Fatal(err)
			}
			res = r
		}
	}
	b.ResetTimer()
	confirmed, total := 0, 0
	for i := 0; i < b.N; i++ {
		vals := core.ValidateAll(res, core.TriggerOptions{MaxSteps: 200_000, Naive: naive})
		confirmed, total = 0, len(vals)
		for _, v := range vals {
			if v.Verdict == trigger.VerdictHarmful || v.Verdict == trigger.VerdictBenign {
				confirmed++
			}
		}
	}
	b.ReportMetric(float64(confirmed), "confirmed")
	b.ReportMetric(float64(total), "reports")
}
