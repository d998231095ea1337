package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, through the same code
// the ledger runs, on inputs small enough for CI.
func TestSmoke(t *testing.T) {
	t.Chdir(t.TempDir()) // the benchmark writes under ./.bench_build
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.Name] = d.Unit != ""
	}
	measured := map[string]bool{}
	ran := 0
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			ran++
			jobs := 1
			if w.name == "served" {
				jobs = 10 // two clients, and job 5 must hit the report cache
			}
			res, err := measure(w, tinyProfile, 7, sizing{jobs: jobs})
			if err != nil {
				t.Fatal(err)
			}
			checkClean(t, res)
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want a positive value", d.Name, v)
				}
			}

			res, err = measureTraced(w, tinyProfile, 7, sizing{jobs: 1})
			if err != nil {
				t.Fatal(err)
			}
			checkClean(t, res)
			for name := range res.Metrics {
				measured[name] = true
				if !known[name] {
					t.Errorf("traced run reports %s, which is not a per-layer metric with a unit", name)
				}
			}
			if c := res.Metrics["layers.closure_share"]; c <= 0 || c > 1.001 {
				t.Errorf("layers.closure_share = %v, want within (0, 1]", c)
			}
			if _, ok := res.Metrics["layers.tracing_overhead_share"]; !ok {
				t.Error("layers.tracing_overhead_share missing")
			}
		})
	}
	// No per-layer metric may be a name without a measurement behind it.
	if ran < len(workloads) {
		return // -run selected a subset
	}
	for _, d := range perLayer {
		if !measured[d.Name] {
			t.Errorf("no workload measures %s", d.Name)
		}
	}
}

func checkClean(t *testing.T, res *result) {
	t.Helper()
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("traced=%v: %d of %d jobs failed: %v", res.Traced, res.Failed, res.Attempted, res.Failures)
	}
	if res.Golden != "absent" {
		t.Errorf("traced=%v: golden %q at a seed without references", res.Traced, res.Golden)
	}
}

// TestManifestMatches checks that ../BENCHMARK.json names exactly the
// workloads and metrics this package defines.
func TestManifestMatches(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, package has %d", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := manifest.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: manifest %+v, package {%s %s}", i, got, w.name, w.why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, package has %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: manifest %+v, package %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", manifest.EndToEnd, endToEnd)
	same("per_layer", manifest.PerLayer, perLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// == [3.5, 24.0, 160.0]
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v, want 3.5, 160", q1, q3)
	}
}
