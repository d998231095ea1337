package bench

import (
	"testing"

	"dcatch/internal/detect"
	"dcatch/internal/hb"
)

// TestParallelFindDeterminism asserts the determinism guarantee of the
// parallel analysis pipeline: on every subject workload's trace, Find with
// Parallelism 8 renders a byte-identical report to the sequential reference
// path, on a graph whose closure was itself computed by the wavefront
// schedule.
func TestParallelFindDeterminism(t *testing.T) {
	cache := map[string]bool{}
	for _, b := range Benchmarks() {
		if cache[dedupKey(b)] {
			continue
		}
		cache[dedupKey(b)] = true
		res, err := Detect(b)
		if err != nil {
			t.Fatalf("%s: %v", b.ID, err)
		}
		gSeq, err := hb.Build(res.Trace, hb.Config{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: sequential build: %v", b.ID, err)
		}
		gPar, err := hb.Build(res.Trace, hb.Config{Parallelism: 8})
		if err != nil {
			t.Fatalf("%s: parallel build: %v", b.ID, err)
		}
		if gSeq.Edges() != gPar.Edges() || gSeq.Rounds != gPar.Rounds {
			t.Fatalf("%s: graph shape diverged: edges %d vs %d, rounds %d vs %d",
				b.ID, gSeq.Edges(), gPar.Edges(), gSeq.Rounds, gPar.Rounds)
		}
		seq := detect.Find(gSeq, detect.Options{Parallelism: 1})
		par := detect.Find(gPar, detect.Options{Parallelism: 8})
		sOut := seq.Format(b.Workload.Program)
		pOut := par.Format(b.Workload.Program)
		if sOut != pOut {
			t.Errorf("%s: parallel report diverged\nsequential:\n%s\nparallel:\n%s", b.ID, sOut, pOut)
		}
	}
}

// TestPipelineBenchRuns sanity-checks the -bench-json measurement path.
func TestPipelineBenchRuns(t *testing.T) {
	res, err := RunPipelineBench(4000, 800, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Error("pipeline legs rendered diverging reports")
	}
	if res.Candidates == 0 {
		t.Error("pipeline bench found no candidates")
	}
	if res.PeakReachBytes <= 0 {
		t.Error("no reachability memory accounted")
	}
	if len(res.Backends) != 2 {
		t.Fatalf("pipeline measured %d backends, want 2", len(res.Backends))
	}
	for _, br := range res.Backends {
		if len(br.Legs) != 5 {
			t.Errorf("%s: %d detect legs, want 5", br.Backend, len(br.Legs))
		}
		if !br.Identical {
			t.Errorf("%s: legs diverged", br.Backend)
		}
		if br.QuadDetectMs <= 0 || br.SeqDetectMs <= 0 || br.ParDetectMs <= 0 {
			t.Errorf("%s: missing headline detect timings: %+v", br.Backend, br)
		}
		for _, leg := range br.Legs {
			if leg.ScanMode == "epoch" && leg.HBQueries != 0 {
				t.Errorf("%s: epoch leg issued %d HB queries", br.Backend, leg.HBQueries)
			}
		}
	}
	if _, err := res.JSON(); err != nil {
		t.Errorf("JSON rendering failed: %v", err)
	}
}
