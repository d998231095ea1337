// Command dcatch runs DCatch bug detection on one of the built-in subject
// benchmarks: it executes the workload under the tracer, performs HB trace
// analysis, static pruning and loop-synchronization analysis, and prints the
// resulting DCbug reports.
//
// Usage:
//
//	dcatch -list
//	dcatch -bench MR-3274 [-seed 1] [-full] [-validate] [-trace-out t.bin]
//	dcatch -bench MR-3274 -metrics-json run.json -v
//	dcatch -bench MR-3274 -explain 0
//	dcatch -bench HB-4729 -dump-structure
//	dcatch -submit http://127.0.0.1:8080 -bench MR-3274 [-validate] ...
//
// With -submit, the job runs on a dcatch-serve instance instead of locally;
// the fetched report is byte-identical to the local run's output.
// Introspection flags that need the in-process result (-explain,
// -trace-out, -metrics-json, -dump-*) stay local-only.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"dcatch/internal/bench"
	"dcatch/internal/core"
	"dcatch/internal/hb"
	"dcatch/internal/ir"
	"dcatch/internal/obs"
	"dcatch/internal/serve"
	"dcatch/internal/subjects"
	"dcatch/internal/trigger"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list available benchmarks")
		benchID   = flag.String("bench", "", "benchmark to analyze (see -list)")
		seed      = flag.Int64("seed", 0, "override the benchmark's schedule seed")
		full      = flag.Bool("full", false, "unselective memory tracing (Table 8 mode)")
		validate  = flag.Bool("validate", false, "run the triggering module on every report")
		naive     = flag.Bool("naive", false, "with -validate: naive request placement")
		structure = flag.Bool("dump-structure", false, "print the cluster's concurrency structure (Fig. 4) and exit")
		program   = flag.Bool("dump-program", false, "print the subject program listing and exit")
		traceOut  = flag.String("trace-out", "", "write the binary trace to this file")
		reach     = flag.String("reach", "dense", "reachability backend: dense (paper bit arrays), chain (O(V*C) chain index), or auto (dense if it fits the memory budget, else chain)")
		metrics   = flag.String("metrics-json", "", "write a versioned run manifest (spans, counters, stats) to this file")
		verbose   = flag.Bool("v", false, "log pipeline progress to stderr")
		explain   = flag.Int("explain", -1, "print the provenance of report pair N (reported pairs first, then pruned candidates) and exit")
		submit    = flag.String("submit", "", "submit the job to the dcatch-serve instance at this base URL instead of running locally")
		version   = flag.Bool("version", false, "print the tool version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.Version())
		return
	}
	if *list {
		for _, b := range bench.Benchmarks() {
			fmt.Printf("%-8s %-16s %-30s %s\n", b.ID, b.System, b.WorkloadDesc, b.Symptom)
		}
		return
	}
	if *submit != "" {
		runRemote(*submit, *benchID, *seed, serve.JobOptions{
			Full:     *full,
			Reach:    *reach,
			Validate: *validate,
			Naive:    *naive,
		}, *explain >= 0 || *traceOut != "" || *metrics != "" || *structure || *program)
		return
	}
	b := findBench(*benchID)
	if b == nil {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q; try -list\n", *benchID)
		os.Exit(2)
	}
	if *structure {
		fmt.Print(b.Workload.StructureDump())
		return
	}
	if *program {
		fmt.Print(ir.PrintProgram(b.Workload.Program))
		return
	}

	opts := core.Options{Seed: b.Seed, MaxSteps: b.MaxSteps, FullTrace: *full}
	backend, err := hb.ParseBackend(*reach)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts.HB.ReachBackend = backend
	if *seed != 0 {
		opts.Seed = *seed
	}
	// Observability: a recorder is attached whenever any export surface
	// wants it; detection results are byte-identical either way.
	var rec *obs.Recorder
	if *metrics != "" || *verbose {
		rec = obs.New()
		if *verbose {
			rec.SetLog(os.Stderr)
		}
		opts.Obs = rec
	}
	res, err := core.Detect(b.Workload, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *explain >= 0 {
		text, err := res.Explain(*explain)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(text)
		writeManifest(*metrics, b, res, rec, flagMap(flag.CommandLine))
		return
	}

	if res.OOM {
		fmt.Print(serve.RenderSubject(b, res, nil, false))
		writeManifest(*metrics, b, res, rec, flagMap(flag.CommandLine))
		os.Exit(1)
	}
	var vals []trigger.Validation
	if *validate {
		vals = core.ValidateAll(res, core.TriggerOptions{MaxSteps: 200_000, Naive: *naive, Obs: rec})
	}
	// The report text is rendered by the same function dcatch-serve stores,
	// so local and served reports are byte-identical by construction.
	fmt.Print(serve.RenderSubject(b, res, vals, *validate))

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := res.Trace.EncodeTo(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "dcatch: writing %s: %v\n", *traceOut, err)
			os.Exit(1)
		}
		fmt.Printf("\ntrace written to %s (%d records)\n", *traceOut, len(res.Trace.Recs))
	}

	writeManifest(*metrics, b, res, rec, flagMap(flag.CommandLine))
}

// runRemote executes the benchmark on a dcatch-serve instance and prints
// the fetched report to stdout. Queue-full responses are retried with
// backoff; job failure exits 1 like a local failure would.
func runRemote(base, benchID string, seed int64, opt serve.JobOptions, localOnlyFlags bool) {
	if localOnlyFlags {
		fmt.Fprintln(os.Stderr, "dcatch: -explain/-trace-out/-metrics-json/-dump-* need the in-process result and cannot be combined with -submit")
		os.Exit(2)
	}
	if benchID == "" {
		fmt.Fprintln(os.Stderr, "dcatch: -submit needs -bench")
		os.Exit(2)
	}
	req := serve.SubjectRequest{Bench: benchID, Options: opt}
	if seed != 0 {
		req.Seeds = []int64{seed}
	}
	client := serve.NewClient(base)
	var st *serve.JobStatus
	var err error
	for attempt := 0; ; attempt++ {
		st, err = client.SubmitSubject(req)
		if err == nil {
			break
		}
		if serve.IsBusy(err) && attempt < 10 {
			time.Sleep(time.Duration(attempt+1) * 200 * time.Millisecond)
			continue
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "submitted %s as job %s (cache_hit=%v)\n", benchID, st.ID, st.CacheHit)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	st, err = client.Wait(ctx, st.ID)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if st.State != serve.StateDone {
		fmt.Fprintf(os.Stderr, "dcatch: job %s %s: %s\n", st.ID, st.State, st.Error)
		os.Exit(1)
	}
	report, err := client.Report(st.ID)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Stdout.Write(report)
	if st.OOM {
		os.Exit(1)
	}
}

// writeManifest exports the run manifest when -metrics-json was given.
func writeManifest(path string, b *subjects.Benchmark, res *core.Result, rec *obs.Recorder, flags map[string]string) {
	if path == "" {
		return
	}
	m := obs.NewManifest("dcatch")
	m.Benchmark = b.ID
	m.Seed = res.Seed()
	m.Flags = flags
	m.Stats = res.Stats
	m.Attach(rec)
	buf, err := m.JSON()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcatch: encoding manifest: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "dcatch: writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "manifest written to %s\n", path)
}

// flagMap captures the flags that were explicitly set, for provenance.
func flagMap(fs *flag.FlagSet) map[string]string {
	m := map[string]string{}
	fs.Visit(func(f *flag.Flag) {
		m[f.Name] = f.Value.String()
	})
	return m
}

func findBench(id string) *subjects.Benchmark {
	for _, b := range bench.Benchmarks() {
		if b.ID == id {
			return b
		}
	}
	return nil
}
