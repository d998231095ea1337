package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"dcatch/internal/core"
	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/stream"
	"dcatch/internal/testtrace"
	"dcatch/internal/trace"
)

// goldenConfigs are the six rule configurations of the Table 9 ablation:
// the full model, each family ignored alone, and every async family at once.
var goldenConfigs = []struct {
	name string
	cfg  hb.Config
}{
	{"full", hb.Config{}},
	{"noevent", hb.Config{DisableEvent: true}},
	{"norpc", hb.Config{DisableRPC: true}},
	{"nosocket", hb.Config{DisableSocket: true}},
	{"nopush", hb.Config{DisablePush: true}},
	{"noasync", hb.Config{DisableEvent: true, DisableRPC: true, DisableSocket: true, DisablePush: true}},
}

type namedTrace struct {
	name string
	tr   *trace.Trace
}

var (
	goldenTracesOnce sync.Once
	goldenTracesList []namedTrace
	goldenTracesErr  error
)

// goldenTraces returns the traces both graph goldens pin: each subject's
// selective and unselective (-full) detection trace, plus a bounded
// synthetic trace with Rule-Eserial work in it.
func goldenTraces(t *testing.T) []namedTrace {
	t.Helper()
	goldenTracesOnce.Do(func() {
		for _, b := range Benchmarks() {
			for _, full := range []bool{false, true} {
				res, err := core.Detect(b.Workload, core.Options{Seed: b.Seed, MaxSteps: b.MaxSteps, FullTrace: full})
				if err != nil {
					goldenTracesErr = err
					return
				}
				name := b.ID + " selective"
				if full {
					name = b.ID + " full"
				}
				goldenTracesList = append(goldenTracesList, namedTrace{name, res.Trace})
			}
		}
		goldenTracesList = append(goldenTracesList, namedTrace{"SyntheticTraceBounded(20000,1)", testtrace.SyntheticTraceBounded(20000, 1)})
	})
	if goldenTracesErr != nil {
		t.Fatal(goldenTracesErr)
	}
	return goldenTracesList
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs at line %d (-update to regenerate)\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s differs in length: %d lines, golden has %d (-update to regenerate)", path, len(gl), len(wl))
}

// textOrDigest keeps a pinned text readable where it is short and the golden
// file small where it is not: past 64 lines the text is replaced by its line
// count and SHA-256.
func textOrDigest(s string) string {
	if n := strings.Count(s, "\n"); n > 64 {
		return fmt.Sprintf("%d lines sha256 %x\n", n, sha256.Sum256([]byte(s)))
	}
	return s
}

// decompositionDigest hashes a chain decomposition's three arrays.
func decompositionDigest(d hb.ChainDecomposition) string {
	h := sha256.New()
	for _, s := range [][]int32{d.Of, d.Pos, d.Len} {
		binary.Write(h, binary.LittleEndian, int64(len(s)))
		binary.Write(h, binary.LittleEndian, s)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestDerivedGraphsGolden pins what hb.Build derives from every golden trace
// under every Table 9 configuration: the chain decomposition, edge and
// Rule-Eserial round counts, every per-rule edge counter, and the report
// detect.Find sweeps out of the graph. Regenerate with
//
//	go test ./internal/bench -run TestDerivedGraphsGolden -update
func TestDerivedGraphsGolden(t *testing.T) {
	var b strings.Builder
	for _, nt := range goldenTraces(t) {
		for _, gc := range goldenConfigs {
			rec := obs.New()
			sp := rec.Span("golden")
			cfg := gc.cfg
			cfg.Obs = sp
			g, err := hb.Build(nt.tr, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", nt.name, gc.name, err)
			}
			rep := detect.Find(g, detect.Options{})
			sp.End()
			dec := g.ChainDecomposition()
			fmt.Fprintf(&b, "== %s / %s\n", nt.name, gc.name)
			fmt.Fprintf(&b, "vertices %d chains %d decomposition %s\n", g.N(), dec.Chains(), decompositionDigest(dec))
			fmt.Fprintf(&b, "edges %d rounds %d\n", g.Edges(), g.Rounds)
			ctr := rec.Counters()
			for _, name := range slices.Sorted(maps.Keys(ctr)) {
				if strings.HasPrefix(name, "hb.edges.") {
					fmt.Fprintf(&b, "%s %d\n", name, ctr[name])
				}
			}
			b.WriteString(textOrDigest(rep.Format(nil)))
		}
	}
	checkGolden(t, "testdata/graphs.golden", b.String())
}

// TestProvisionalEventsGolden pins the streaming analyzer's online pass as
// callers drive it: each golden trace, encoded and fed to a core.TraceJob in
// 1 KiB segments under every Table 9 configuration, must raise the same
// candidates and retractions in the same order. Regenerate with
//
//	go test ./internal/bench -run TestProvisionalEventsGolden -update
func TestProvisionalEventsGolden(t *testing.T) {
	var b strings.Builder
	for _, nt := range goldenTraces(t) {
		raw := nt.tr.Encode()
		for _, gc := range goldenConfigs {
			fmt.Fprintf(&b, "== %s / %s\n", nt.name, gc.name)
			var evs []string
			retracts := 0
			job, err := core.NewTraceJob(core.Options{HB: gc.cfg}, nil, func(ev stream.Event) {
				p := ev.Pair
				evs = append(evs, fmt.Sprintf("%s @%d %s s%d/s%d [%s] [%s] r%d/r%d\n",
					ev.Kind, ev.Records, p.Obj, p.AStatic, p.BStatic, p.AStack, p.BStack, p.ARec, p.BRec))
				if ev.Kind == stream.EventRetract {
					retracts++
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off < len(raw); off += 1024 {
				if _, err := job.Feed(raw[off:min(off+1024, len(raw))]); err != nil {
					t.Fatalf("%s %s: %v", nt.name, gc.name, err)
				}
			}
			if _, err := job.Finish(); err != nil {
				t.Fatalf("%s %s: %v", nt.name, gc.name, err)
			}
			fmt.Fprintf(&b, "candidates %d retractions %d\n", len(evs)-retracts, retracts)
			b.WriteString(textOrDigest(strings.Join(evs, "")))
		}
	}
	checkGolden(t, "testdata/provisional.golden", b.String())
}
