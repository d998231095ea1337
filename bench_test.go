// Package main's bench_test regenerates every table of the DCatch paper's
// evaluation as Go benchmarks — one Benchmark* per table — plus the two
// design-choice ablations called out in DESIGN.md: reachability
// representation (bit arrays vs vector clocks, §3.2.2) and trigger request
// placement (analyzed vs naive, §7.2).
//
//	go test -bench=. -benchmem
package main

import (
	"testing"
	"time"

	"dcatch/internal/bench"
	"dcatch/internal/core"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/subjects"
	"dcatch/internal/trigger"
)

// BenchmarkTable3 renders the benchmark inventory (paper Table 3).
func BenchmarkTable3(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.Table3()
	}
	b.StopTimer()
	if b.N > 0 {
		b.Logf("\n%s", out)
	}
}

// BenchmarkTable4 runs detection + triggering classification on all seven
// benchmarks (paper Table 4).
func BenchmarkTable4(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = bench.Table4()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", out)
}

// BenchmarkTable5 measures the pruning pipeline stages (paper Table 5).
func BenchmarkTable5(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = bench.Table5()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", out)
}

// BenchmarkTable6 measures base/tracing/analysis/pruning cost on the scaled
// workloads (paper Table 6).
func BenchmarkTable6(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = bench.Table6()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", out)
}

// BenchmarkTable7 reports the trace-record breakdown (paper Table 7).
func BenchmarkTable7(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = bench.Table7()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", out)
}

// BenchmarkTable8 runs unselective tracing with the bounded analysis budget
// (paper Table 8): the big workloads must run out of memory.
func BenchmarkTable8(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = bench.Table8()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", out)
}

// BenchmarkTable9 reruns trace analysis under each HB-rule ablation (paper
// Table 9).
func BenchmarkTable9(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = bench.Table9()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", out)
}

// detectScaledMR runs the standard pipeline on the scaled MapReduce
// workload, the largest trace among the benchmarks.
func detectScaledMR(b *testing.B) *core.Result {
	b.Helper()
	for _, bm := range bench.Benchmarks() {
		if bm.ID != "MR-3274" {
			continue
		}
		res, err := bench.Detect(bm)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	b.Fatal("MR-3274 missing")
	return nil
}

// BenchmarkReachabilityBitset measures DCatch's reachability representation
// (§3.2.2): per-vertex bit arrays with constant-time queries.
func BenchmarkReachabilityBitset(b *testing.B) {
	res := detectScaledMR(b)
	tr := res.Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := hb.Build(tr, hb.Config{})
		if err != nil {
			b.Fatal(err)
		}
		// Query a spread of pairs, as detection does.
		n := g.N()
		for x := 0; x < n; x += 7 {
			for y := x + 1; y < n; y += 97 {
				g.Concurrent(x, y)
			}
		}
	}
}

// BenchmarkReachabilityVectorClocks measures the rejected alternative: one
// vector-clock dimension per handler/RPC instance (§3.2.2 "each event
// handler and RPC function contributing one dimension").
func BenchmarkReachabilityVectorClocks(b *testing.B) {
	res := detectScaledMR(b)
	tr := res.Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := hb.Build(tr, hb.Config{})
		if err != nil {
			b.Fatal(err)
		}
		clocks := g.VectorClocks()
		n := g.N()
		for x := 0; x < n; x += 7 {
			for y := x + 1; y < n; y += 97 {
				clocks[x].Concurrent(clocks[y])
			}
		}
	}
}

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

// BenchmarkObsOverhead measures the cost of the observability layer on the
// full MR-3274 pipeline. Recording-on and recording-off runs are interleaved
// within each iteration (back-to-back, so machine noise hits both sides
// equally) and the ratio is reported as the "overhead_pct" metric — the
// budget is <5%, since disabled hot paths pay only nil checks and counters
// are batched per stage.
func BenchmarkObsOverhead(b *testing.B) {
	var bm *subjects.Benchmark
	for _, x := range bench.Benchmarks() {
		if x.ID == "MR-3274" {
			bm = x
		}
	}
	if bm == nil {
		b.Fatal("MR-3274 missing")
	}
	run := func(rec *obs.Recorder) time.Duration {
		opts := core.Options{Seed: bm.Seed, MaxSteps: bm.MaxSteps, Obs: rec}
		start := time.Now()
		if _, err := core.Detect(bm.Workload, opts); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	run(nil) // warm up
	var offTotal, onTotal time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offTotal += run(nil)
		onTotal += run(obs.New())
	}
	b.StopTimer()
	if offTotal > 0 {
		pct := 100 * (float64(onTotal)/float64(offTotal) - 1)
		b.ReportMetric(pct, "overhead_pct")
	}
}

func benchmarkPlacement(b *testing.B, naive bool) {
	var res *core.Result
	for _, bm := range bench.Benchmarks() {
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
