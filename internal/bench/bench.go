// Package bench regenerates every table of the DCatch paper's evaluation
// (§7, Tables 3–9) against the four mini subject systems. Each TableN
// function runs the relevant pipeline configuration and renders rows in the
// paper's layout so the shapes can be compared side by side (absolute
// numbers differ: the substrate is a simulator and the subjects are
// miniatures — see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"dcatch/internal/core"
	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/subjects"
	"dcatch/internal/subjects/minica"
	"dcatch/internal/subjects/minihb"
	"dcatch/internal/subjects/minimr"
	"dcatch/internal/subjects/minizk"
	"dcatch/internal/trigger"
)

// Benchmarks returns the seven paper benchmarks in Table 3 order.
func Benchmarks() []*subjects.Benchmark {
	return []*subjects.Benchmark{
		minica.BenchCA1011(),
		minihb.BenchHB4539(),
		minihb.BenchHB4729(),
		minimr.BenchMR3274(),
		minimr.BenchMR4637(),
		minizk.BenchZK1144(),
		minizk.BenchZK1270(),
	}
}

// Lookup returns the benchmark with the given ID, or nil.
func Lookup(id string) *subjects.Benchmark {
	for _, b := range Benchmarks() {
		if b.ID == id {
			return b
		}
	}
	return nil
}

// Detect runs the standard pipeline on one benchmark.
func Detect(b *subjects.Benchmark) (*core.Result, error) {
	return core.Detect(b.Workload, core.Options{Seed: b.Seed, MaxSteps: b.MaxSteps})
}

// dedupKey avoids re-running detection for benchmarks that share a workload
// (the two MR benchmarks run the same "startup + wordcount").
func dedupKey(b *subjects.Benchmark) string {
	return b.Workload.Name
}

type table struct {
	b  strings.Builder
	tw *tabwriter.Writer
}

func newTable(title string) *table {
	t := &table{}
	fmt.Fprintf(&t.b, "%s\n", title)
	t.tw = tabwriter.NewWriter(&t.b, 2, 4, 2, ' ', 0)
	return t
}

func (t *table) row(cells ...string) {
	fmt.Fprintln(t.tw, strings.Join(cells, "\t"))
}

func (t *table) String() string {
	t.tw.Flush()
	return t.b.String()
}

// Table3 renders the benchmark inventory (paper Table 3). The paper's LoC
// column becomes the subject program's statement count — the analogous size
// measure of our substrate.
func Table3() string {
	t := newTable("Table 3: benchmark bugs and applications")
	t.row("BugID", "Stmts", "Workload", "Symptom", "Error", "Root")
	for _, b := range Benchmarks() {
		t.row(b.ID,
			fmt.Sprintf("%d", b.Workload.Program.NumStmts()),
			b.WorkloadDesc, b.Symptom, b.ErrorPattern, b.RootCause)
	}
	return t.String()
}

// Table4Row is one benchmark's detection outcome.
type Table4Row struct {
	ID       string
	Detected bool
	// Static-instruction-pair and callstack-pair counts per class.
	BugS, BenignS, SerialS int
	BugC, BenignC, SerialC int
	Untriggered            int
}

// Table4Rows runs detection and triggering on every benchmark and
// classifies each report using the triggering module (paper Table 4).
func Table4Rows() ([]Table4Row, error) {
	var rows []Table4Row
	cache := map[string]*core.Result{}
	for _, b := range Benchmarks() {
		res, ok := cache[dedupKey(b)]
		if !ok {
			var err error
			res, err = Detect(b)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.ID, err)
			}
			cache[dedupKey(b)] = res
		}
		vals := core.ValidateAll(res, core.TriggerOptions{MaxSteps: 200_000})
		row := Table4Row{ID: b.ID}
		found, _ := b.DetectedBugs(res.Final)
		row.Detected = found == len(b.Bugs)
		statics := map[string]trigger.Verdict{}
		for _, v := range vals {
			switch v.Verdict {
			case trigger.VerdictHarmful:
				row.BugC++
			case trigger.VerdictBenign:
				row.BenignC++
			case trigger.VerdictSerial:
				row.SerialC++
			default:
				row.Untriggered++
			}
			// Harmful dominates when one static pair has mixed
			// callstack verdicts.
			k := v.Pair.StaticKey()
			if old, seen := statics[k]; !seen || worse(v.Verdict, old) {
				statics[k] = v.Verdict
			}
		}
		for _, vd := range statics {
			switch vd {
			case trigger.VerdictHarmful:
				row.BugS++
			case trigger.VerdictBenign:
				row.BenignS++
			case trigger.VerdictSerial:
				row.SerialS++
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func worse(a, b trigger.Verdict) bool {
	rank := func(v trigger.Verdict) int {
		switch v {
		case trigger.VerdictHarmful:
			return 3
		case trigger.VerdictBenign:
			return 2
		case trigger.VerdictSerial:
			return 1
		}
		return 0
	}
	return rank(a) > rank(b)
}

// Table4 renders the detection-result table.
func Table4() (string, error) {
	rows, err := Table4Rows()
	if err != nil {
		return "", err
	}
	t := newTable("Table 4: DCatch bug detection results (by triggering-module classification)")
	t.row("BugID", "Detected?", "Bug(S)", "Benign(S)", "Serial(S)", "Bug(C)", "Benign(C)", "Serial(C)")
	for _, r := range rows {
		det := "yes"
		if !r.Detected {
			det = "NO"
		}
		t.row(r.ID, det,
			fmt.Sprintf("%d", r.BugS), fmt.Sprintf("%d", r.BenignS), fmt.Sprintf("%d", r.SerialS),
			fmt.Sprintf("%d", r.BugC), fmt.Sprintf("%d", r.BenignC), fmt.Sprintf("%d", r.SerialC))
	}
	return t.String(), nil
}

// Table5Row is one benchmark's per-stage candidate counts.
type Table5Row struct {
	ID            string
	TAS, SPS, LPS int // static pairs
	TAC, SPC, LPC int // callstack pairs
}

// Table5Rows reports candidates after trace analysis (TA), plus static
// pruning (SP), plus loop-based synchronization analysis (LP).
func Table5Rows() ([]Table5Row, error) {
	var rows []Table5Row
	cache := map[string]*core.Result{}
	for _, b := range Benchmarks() {
		res, ok := cache[dedupKey(b)]
		if !ok {
			var err error
			res, err = Detect(b)
			if err != nil {
				return nil, err
			}
			cache[dedupKey(b)] = res
		}
		rows = append(rows, Table5Row{
			ID:  b.ID,
			TAS: res.Stats.TAStatic, SPS: res.Stats.SPStatic, LPS: res.Stats.LPStatic,
			TAC: res.Stats.TACallstack, SPC: res.Stats.SPCallstack, LPC: res.Stats.LPCallstack,
		})
	}
	return rows, nil
}

// Table5 renders the pruning-stage table.
func Table5() (string, error) {
	rows, err := Table5Rows()
	if err != nil {
		return "", err
	}
	t := newTable("Table 5: # of DCbugs reported by trace analysis (TA), plus static pruning (SP), plus loop-sync analysis (LP)")
	t.row("BugID", "TA(S)", "TA+SP(S)", "TA+SP+LP(S)", "TA(C)", "TA+SP(C)", "TA+SP+LP(C)")
	for _, r := range rows {
		t.row(r.ID,
			fmt.Sprintf("%d", r.TAS), fmt.Sprintf("%d", r.SPS), fmt.Sprintf("%d", r.LPS),
			fmt.Sprintf("%d", r.TAC), fmt.Sprintf("%d", r.SPC), fmt.Sprintf("%d", r.LPC))
	}
	return t.String(), nil
}

// PerfScale is the workload scale used for the performance tables; the
// standard functional benchmarks use scale 1.
const PerfScale = 60

// scaledWorkloads returns the performance-measurement workloads: the same
// benchmarks with their scalable dimensions widened so traces reach sizes
// where tracing and analysis costs are measurable.
func scaledBenchmarks() []*subjects.Benchmark {
	bs := Benchmarks()
	for _, b := range bs {
		switch b.Workload.Name {
		case "minimr":
			b.Workload = minimr.WorkloadN(PerfScale)
			b.MaxSteps = 3_000_000
		case "minica":
			b.Workload = minica.WorkloadN(PerfScale * 4)
			b.MaxSteps = 3_000_000
		case "minihb-4539", "minihb-4729":
			b.Workload = minihb.WorkloadPerf(PerfScale)
			b.MaxSteps = 3_000_000
		}
	}
	return bs
}

// Table6Row is one benchmark's performance measurements.
type Table6Row struct {
	ID           string
	BaseMs       float64
	TracingMs    float64
	AnalysisMs   float64
	PruningMs    float64
	TraceBytes   int
	TraceRecords int
}

// Table6Rows measures base execution, tracing, trace analysis and static
// pruning on the scaled workloads (paper Table 6).
func Table6Rows() ([]Table6Row, error) {
	var rows []Table6Row
	cache := map[string]*core.Result{}
	for _, b := range scaledBenchmarks() {
		res, ok := cache[dedupKey(b)]
		if !ok {
			var err error
			res, err = core.Detect(b.Workload, core.Options{Seed: b.Seed, MaxSteps: b.MaxSteps})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.ID, err)
			}
			cache[dedupKey(b)] = res
		}
		rows = append(rows, Table6Row{
			ID:           b.ID,
			BaseMs:       float64(res.Stats.BaseTime.Microseconds()) / 1000,
			TracingMs:    float64(res.Stats.TracingTime.Microseconds()) / 1000,
			AnalysisMs:   float64(res.Stats.AnalysisTime.Microseconds()) / 1000,
			PruningMs:    float64(res.Stats.PruningTime.Microseconds()) / 1000,
			TraceBytes:   res.Stats.TraceBytes,
			TraceRecords: res.Stats.TraceRecords,
		})
	}
	return rows, nil
}

// Table6 renders the performance table.
func Table6() (string, error) {
	rows, err := Table6Rows()
	if err != nil {
		return "", err
	}
	t := newTable(fmt.Sprintf("Table 6: DCatch performance (workload scale %d)", PerfScale))
	t.row("BugID", "Base", "Tracing", "TraceAnalysis", "StaticPruning", "TraceSize")
	for _, r := range rows {
		t.row(r.ID,
			fmt.Sprintf("%.1fms", r.BaseMs),
			fmt.Sprintf("%.1fms", r.TracingMs),
			fmt.Sprintf("%.1fms", r.AnalysisMs),
			fmt.Sprintf("%.1fms", r.PruningMs),
			fmt.Sprintf("%.1fKB", float64(r.TraceBytes)/1024))
	}
	return t.String(), nil
}

// Table7 renders the trace-record breakdown (paper Table 7) on the scaled
// workloads.
func Table7() (string, error) {
	t := newTable(fmt.Sprintf("Table 7: breakdown of trace records (workload scale %d)", PerfScale))
	t.row("BugID", "Total", "Mem", "RPC/Socket", "Event", "Thread", "Lock", "ZKPush")
	cache := map[string]*core.Result{}
	for _, b := range scaledBenchmarks() {
		res, ok := cache[dedupKey(b)]
		if !ok {
			var err error
			res, err = core.Detect(b.Workload, core.Options{Seed: b.Seed, MaxSteps: b.MaxSteps})
			if err != nil {
				return "", err
			}
			cache[dedupKey(b)] = res
		}
		s := res.Trace.Stats()
		t.row(b.ID,
			fmt.Sprintf("%d", s.Total), fmt.Sprintf("%d", s.Mem),
			fmt.Sprintf("%d/%d", s.RPC, s.Socket),
			fmt.Sprintf("%d", s.Event), fmt.Sprintf("%d", s.Thread),
			fmt.Sprintf("%d", s.Lock), fmt.Sprintf("%d", s.ZKPush))
	}
	return t.String(), nil
}

// AnalysisMemBudget is the trace-analysis memory budget used by Table 8 —
// the stand-in for the paper's 50 GB JVM heap, scaled to our trace sizes.
const AnalysisMemBudget = 20 << 20 // 20 MiB of reachability bit arrays

// Table8Row is one benchmark's unselective-tracing outcome.
type Table8Row struct {
	ID            string
	TraceBytes    int
	TraceRecords  int
	TracingMs     float64
	AnalysisMs    float64
	OutOfMemory   bool
	SelectiveSize int
}

// Table8Rows runs full (unselective) memory tracing with a bounded analysis
// budget (paper Table 8): the larger workloads must blow the budget.
func Table8Rows() ([]Table8Row, error) {
	var rows []Table8Row
	cache := map[string]*core.Result{}
	sel := map[string]int{}
	for _, b := range scaledBenchmarks() {
		res, ok := cache[dedupKey(b)]
		if !ok {
			// Selective size for the comparison column.
			selRes, err := core.Detect(b.Workload, core.Options{Seed: b.Seed, MaxSteps: b.MaxSteps})
			if err != nil {
				return nil, err
			}
			sel[dedupKey(b)] = selRes.Stats.TraceBytes
			res, err = core.Detect(b.Workload, core.Options{
				Seed: b.Seed, MaxSteps: b.MaxSteps,
				FullTrace: true,
				HB:        hb.Config{MemBudget: AnalysisMemBudget},
			})
			if err != nil {
				return nil, err
			}
			cache[dedupKey(b)] = res
		}
		rows = append(rows, Table8Row{
			ID:            b.ID,
			TraceBytes:    res.Stats.TraceBytes,
			TraceRecords:  res.Stats.TraceRecords,
			TracingMs:     float64(res.Stats.TracingTime.Microseconds()) / 1000,
			AnalysisMs:    float64(res.Stats.AnalysisTime.Microseconds()) / 1000,
			OutOfMemory:   res.OOM,
			SelectiveSize: sel[dedupKey(b)],
		})
	}
	return rows, nil
}

// Table8 renders the unselective-tracing table.
func Table8() (string, error) {
	rows, err := Table8Rows()
	if err != nil {
		return "", err
	}
	t := newTable(fmt.Sprintf("Table 8: full (unselective) memory tracing, analysis budget %d MiB", AnalysisMemBudget>>20))
	t.row("BugID", "TraceSize", "(selective)", "TracingTime", "TraceAnalysis")
	for _, r := range rows {
		an := fmt.Sprintf("%.1fms", r.AnalysisMs)
		if r.OutOfMemory {
			an = "Out of Memory"
		}
		t.row(r.ID,
			fmt.Sprintf("%.1fKB", float64(r.TraceBytes)/1024),
			fmt.Sprintf("%.1fKB", float64(r.SelectiveSize)/1024),
			fmt.Sprintf("%.1fms", r.TracingMs), an)
	}
	return t.String(), nil
}

// Table9Row reports false negatives / false positives caused by ignoring a
// rule family, relative to the full model's trace analysis.
type Table9Row struct {
	ID string
	// Per family: {Event, RPC, Socket, Push}; values are {FN, FP} static
	// then {FN, FP} callstack.
	Cells map[string][4]int
}

var table9Families = []string{"Event", "RPC", "Socket", "Push"}

// Table9Rows reruns trace analysis with each HB-rule family ignored (paper
// Table 9, §7.4) and diffs the reports against the full model.
func Table9Rows() ([]Table9Row, error) {
	var rows []Table9Row
	type cached struct {
		res  *core.Result
		abls map[string]*detect.Report
	}
	cache := map[string]*cached{}
	for _, b := range Benchmarks() {
		c, ok := cache[dedupKey(b)]
		if !ok {
			res, err := Detect(b)
			if err != nil {
				return nil, err
			}
			c = &cached{res: res, abls: map[string]*detect.Report{}}
			for _, fam := range table9Families {
				cfg := hb.Config{}
				switch fam {
				case "Event":
					cfg.DisableEvent = true
				case "RPC":
					cfg.DisableRPC = true
				case "Socket":
					cfg.DisableSocket = true
				case "Push":
					cfg.DisablePush = true
				}
				g, err := hb.Build(res.Trace, cfg)
				if err != nil {
					return nil, err
				}
				c.abls[fam] = detect.Find(g, detect.Options{})
			}
			cache[dedupKey(b)] = c
		}
		row := Table9Row{ID: b.ID, Cells: map[string][4]int{}}
		for _, fam := range table9Families {
			fnS, fpS := diffStatic(c.res.TA, c.abls[fam])
			fnC, fpC := diffCallstack(c.res.TA, c.abls[fam])
			row.Cells[fam] = [4]int{fnS, fpS, fnC, fpC}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func diffStatic(full, ablated *detect.Report) (fn, fp int) {
	f := map[string]bool{}
	for _, k := range full.StaticKeys() {
		f[k] = true
	}
	a := map[string]bool{}
	for _, k := range ablated.StaticKeys() {
		a[k] = true
	}
	for k := range f {
		if !a[k] {
			fn++
		}
	}
	for k := range a {
		if !f[k] {
			fp++
		}
	}
	return fn, fp
}

func diffCallstack(full, ablated *detect.Report) (fn, fp int) {
	f := map[detect.CallstackKey]bool{}
	for i := range full.Pairs {
		f[full.Pairs[i].CallstackKey()] = true
	}
	a := map[detect.CallstackKey]bool{}
	for i := range ablated.Pairs {
		a[ablated.Pairs[i].CallstackKey()] = true
	}
	for k := range f {
		if !a[k] {
			fn++
		}
	}
	for k := range a {
		if !f[k] {
			fp++
		}
	}
	return fn, fp
}

// Table9 renders the HB-rule ablation table.
func Table9() (string, error) {
	rows, err := Table9Rows()
	if err != nil {
		return "", err
	}
	t := newTable("Table 9: false negatives (-) and false positives (+) when ignoring HB-related operations; static pairs [callstack pairs]")
	t.row(append([]string{"BugID"}, table9Families...)...)
	for _, r := range rows {
		cells := []string{r.ID}
		for _, fam := range table9Families {
			c := r.Cells[fam]
			if c == [4]int{} {
				cells = append(cells, "-")
			} else {
				cells = append(cells, fmt.Sprintf("-%d/+%d [-%d/+%d]", c[0], c[1], c[2], c[3]))
			}
		}
		t.row(cells...)
	}
	return t.String(), nil
}

// All renders every table.
func All() (string, error) {
	var b strings.Builder
	b.WriteString(Table3())
	b.WriteString("\n")
	for _, f := range []func() (string, error){Table4, Table5, Table6, Table7, Table8, Table8Chunked, Table9} {
		s, err := f()
		if err != nil {
			return "", err
		}
		b.WriteString(s)
		b.WriteString("\n")
	}
	return b.String(), nil
}

// Table8Chunked reruns the Table 8 configuration with the chunked-analysis
// fallback enabled (the paper's §7.2 mitigation, implemented as an
// extension): the OOM rows must now produce reports within the same
// per-window budget.
func Table8Chunked() (string, error) {
	t := newTable(fmt.Sprintf("Table 8 (extension): unselective tracing with chunked-analysis fallback, budget %d MiB, window %d records", AnalysisMemBudget>>20, ChunkWindow))
	t.row("BugID", "Mode", "TA(C)", "PeakAnalysisMem")
	cache := map[string]*core.Result{}
	for _, b := range scaledBenchmarks() {
		res, ok := cache[dedupKey(b)]
		if !ok {
			var err error
			res, err = core.Detect(b.Workload, core.Options{
				Seed: b.Seed, MaxSteps: b.MaxSteps,
				FullTrace: true,
				HB:        hb.Config{MemBudget: AnalysisMemBudget},
				ChunkSize: ChunkWindow,
			})
			if err != nil {
				return "", err
			}
			cache[dedupKey(b)] = res
		}
		mode := "full"
		if res.Chunked {
			mode = "chunked"
		}
		if res.OOM {
			mode = "OOM"
		}
		t.row(b.ID, mode,
			fmt.Sprintf("%d", res.Stats.TACallstack),
			fmt.Sprintf("%.1fMB", float64(res.Stats.HBMemBytes)/(1<<20)))
	}
	return t.String(), nil
}

// ChunkWindow is the window size used by the chunked-analysis extension.
const ChunkWindow = 4000
