// Command dcatch-bench regenerates the DCatch paper's evaluation tables
// (Tables 3–9) against the mini subject systems, and runs the streaming,
// service, cluster and incremental sweeps.
//
// Usage:
//
//	dcatch-bench                       # all tables
//	dcatch-bench -table 5              # one table
//	dcatch-bench -stream-records 50000 # streaming smoke: time-to-first-candidate and peak
//	                                   # live memory vs batch; exit 1 if a streaming report
//	                                   # diverges from its batch oracle
//	dcatch-bench -serve-load           # closed-loop load run against an in-process
//	                                   # dcatch-serve, write BENCH_serve.json
//	dcatch-bench -serve-load -serve-url http://host:8080
//	                                   # same, against a running service
//	dcatch-bench -cluster-workers 1,2,4
//	                                   # distributed-detection scale-out sweep against
//	                                   # in-process window-scan workers, write
//	                                   # BENCH_cluster.json; exit 1 if any cluster report
//	                                   # diverges from the single-node chunked oracle
//	dcatch-bench -incr-mutate 0,1,5,25
//	                                   # incremental re-analysis sweep: mutate K% of a
//	                                   # trace, rerun against a persistent window-scan
//	                                   # cache, write BENCH_incr.json; exit 1 if a cached
//	                                   # report diverges from the uncached oracle, the
//	                                   # 1% rerun exceeds 25% of the cold wall, or a
//	                                   # second identical rerun misses any window
//	dcatch-bench -incr-smoke           # in-process dcatch-serve incremental smoke:
//	                                   # upload base + mutated traces against a
//	                                   # persistent scan cache, assert the report is
//	                                   # byte-equal to the uncached analysis and that
//	                                   # /metrics shows scancache hits
//	dcatch-bench -synth-records 50000 -synth-out t.bin
//	                                   # write a deterministic synthetic trace for CI
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"dcatch/internal/bench"
	"dcatch/internal/core"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/scancache"
	"dcatch/internal/serve"
	"dcatch/internal/trace"
)

func main() {
	var (
		table    = flag.Int("table", 0, "render only this table (3-9); 0 = all")
		strSweep = flag.String("stream-records", "", "comma-separated trace sizes for the streaming sweep (time-to-first-candidate and peak live memory, streaming vs batch); exits 1 if a streaming report diverges from its batch oracle")
		version  = flag.Bool("version", false, "print the tool version and exit")

		serveLoad    = flag.Bool("serve-load", false, "run the closed-loop service load benchmark and write its JSON result")
		serveURL     = flag.String("serve-url", "", "with -serve-load: target a running dcatch-serve; empty starts one in-process")
		serveConc    = flag.Int("serve-concurrency", 4, "with -serve-load: concurrent closed-loop clients")
		serveJobs    = flag.Int("serve-jobs", 64, "with -serve-load: total jobs to push through")
		serveMix     = flag.Float64("serve-upload-mix", 0.25, "with -serve-load: fraction of jobs submitted as trace uploads")
		serveRecords = flag.Int("serve-records", 5000, "with -serve-load: synthetic upload trace length")
		serveBench   = flag.String("serve-bench", "MR-3274", "with -serve-load: subject benchmark ID")
		serveOut     = flag.String("serve-out", "BENCH_serve.json", "with -serve-load: output path")

		clusterWorkers = flag.String("cluster-workers", "", "comma-separated worker counts for the distributed-detection scale-out sweep (e.g. 1,2,4); exits 1 if any cluster report diverges from the single-node chunked oracle")
		clusterRecords = flag.Int("cluster-records", 1_000_000, "with -cluster-workers: synthetic trace length")
		clusterChunk   = flag.Int("cluster-chunk", 50_000, "with -cluster-workers: records per distributed window")
		clusterReps    = flag.Int("cluster-reps", 3, "with -cluster-workers: repetitions per worker count (minimum wall wins)")
		clusterOut     = flag.String("cluster-out", "BENCH_cluster.json", "with -cluster-workers: output path")

		incrMutate  = flag.String("incr-mutate", "", "comma-separated mutation percentages for the incremental re-analysis sweep (e.g. 0,1,5,25); exits 1 on report divergence, a 1% rerun above the target ratio, or a missing second-rerun hit")
		incrRecords = flag.Int("incr-records", 1_000_000, "with -incr-mutate/-incr-smoke: synthetic trace length")
		incrChunk   = flag.Int("incr-chunk", 50_000, "with -incr-mutate/-incr-smoke: records per analysis window")
		incrDir     = flag.String("incr-cache-dir", "", "with -incr-mutate/-incr-smoke: persistent scan-cache root (empty = a temporary directory)")
		incrOut     = flag.String("incr-out", "BENCH_incr.json", "with -incr-mutate: output path")
		incrSmoke   = flag.Bool("incr-smoke", false, "run the in-process dcatch-serve incremental smoke (byte-equal report + scancache hits in /metrics) and exit")

		synthRecords = flag.Int("synth-records", 0, "generate a synthetic trace of this many records and exit (for CI smoke jobs)")
		synthOut     = flag.String("synth-out", "trace.bin", "with -synth-records: output path")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.Version())
		return
	}
	if *synthRecords > 0 {
		if err := writeSyntheticTrace(*synthRecords, *synthOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *serveLoad {
		if err := runServeLoad(*serveURL, *serveConc, *serveJobs, *serveMix, *serveRecords, *serveBench, *serveOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *clusterWorkers != "" {
		if err := runClusterSweep(*clusterWorkers, *clusterRecords, *clusterChunk, *clusterReps, *clusterOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *incrMutate != "" {
		if err := runIncrSweep(*incrMutate, *incrRecords, *incrChunk, *incrDir, *incrOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *incrSmoke {
		if err := runIncrSmoke(*incrRecords, *incrChunk, *incrDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *strSweep != "" {
		sizes, err := parseSizes(*strSweep)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if _, err := bench.RunStreamSweep(sizes, 42, func(format string, args ...any) {
			fmt.Printf("stream: "+format+"\n", args...)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "ERROR: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var out string
	var err error
	switch *table {
	case 0:
		out, err = bench.All()
	case 3:
		out = bench.Table3()
	case 4:
		out, err = bench.Table4()
	case 5:
		out, err = bench.Table5()
	case 6:
		out, err = bench.Table6()
	case 7:
		out, err = bench.Table7()
	case 8:
		out, err = bench.Table8()
	case 9:
		out, err = bench.Table9()
	default:
		fmt.Fprintf(os.Stderr, "no table %d (the paper has Tables 3-9)\n", *table)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(out)
}

// runServeLoad executes the service load benchmark. With no -serve-url it
// stands up a real dcatch-serve on a loopback listener for the duration —
// the measured path is still full HTTP, worker pool, admission and cache.
func runServeLoad(url string, conc, jobs int, mix float64, records int, benchID, out string) error {
	if url == "" {
		s := serve.New(serve.Config{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: s.Handler()}
		go hs.Serve(ln)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Shutdown(ctx)
			hs.Shutdown(ctx)
		}()
		url = "http://" + ln.Addr().String()
		fmt.Printf("serve-load: in-process dcatch-serve on %s\n", url)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()
	res, err := bench.RunServeLoad(ctx, bench.ServeLoadOptions{
		URL:          url,
		Concurrency:  conc,
		Jobs:         jobs,
		UploadMix:    mix,
		TraceRecords: records,
		Bench:        benchID,
		Seed:         42,
		Logf: func(format string, args ...any) {
			fmt.Printf("serve-load: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	buf, err := res.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("result written to %s\n", out)
	if res.Failed > 0 || res.Canceled > 0 {
		return fmt.Errorf("dcatch-bench: %d failed / %d canceled jobs", res.Failed, res.Canceled)
	}
	return nil
}

// writeSyntheticTrace encodes a deterministic SyntheticTrace for CI smoke
// jobs that need a trace file without running a subject system.
func writeSyntheticTrace(records int, out string) error {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	tr := bench.SyntheticTrace(records, 42)
	if err := tr.EncodeTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("%d-record synthetic trace written to %s\n", len(tr.Recs), out)
	return nil
}

// runClusterSweep executes the distributed-detection scale-out sweep and
// writes BENCH_cluster.json. Divergence from the single-node oracle is the
// only hard failure; a non-monotone wall only warns (single-core hosts can
// jitter between adjacent worker counts).
func runClusterSweep(workers string, records, chunk, reps int, out string) error {
	counts, err := parseSizes(workers)
	if err != nil {
		return err
	}
	res, err := bench.RunClusterSweep(records, chunk, counts, reps, 42, func(format string, args ...any) {
		fmt.Printf("cluster: "+format+"\n", args...)
	})
	if res == nil {
		return err
	}
	buf, jerr := res.JSON()
	if jerr != nil {
		return jerr
	}
	if werr := os.WriteFile(out, append(buf, '\n'), 0o644); werr != nil {
		return werr
	}
	fmt.Printf("result written to %s\n", out)
	if err != nil {
		return err
	}
	if !res.MonotoneWall {
		fmt.Fprintln(os.Stderr, "WARNING: wall time did not improve monotonically with worker count")
	}
	return nil
}

// runIncrSweep executes the incremental re-analysis sweep and writes
// BENCH_incr.json. The file is written even when a gate fails so the
// failing numbers stay inspectable.
func runIncrSweep(pcts string, records, chunk int, dir, out string) error {
	mut, err := parsePcts(pcts)
	if err != nil {
		return err
	}
	res, err := bench.RunIncrSweep(records, chunk, mut, 42, dir, func(format string, args ...any) {
		fmt.Printf("incr: "+format+"\n", args...)
	})
	if res == nil {
		return err
	}
	buf, jerr := res.JSON()
	if jerr != nil {
		return jerr
	}
	if werr := os.WriteFile(out, append(buf, '\n'), 0o644); werr != nil {
		return werr
	}
	fmt.Printf("result written to %s\n", out)
	return err
}

// runIncrSmoke exercises the cache through the whole service surface: an
// in-process dcatch-serve with a persistent scan cache analyzes a base
// trace, then a 2%-mutated copy. The mutated job's report must be
// byte-identical to a local uncached analysis, and /metrics must show the
// window-scan cache hitting (the mutated upload misses the whole-report
// cache but reuses every clean window's scan).
func runIncrSmoke(records, chunk int, dir string) error {
	if dir == "" {
		d, err := os.MkdirTemp("", "dcatch-incr-smoke-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	rec := obs.New()
	sc, err := scancache.New(scancache.Config{Dir: dir, Obs: rec})
	if err != nil {
		return err
	}
	s := serve.New(serve.Config{ScanCache: sc, Obs: rec})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		hs.Shutdown(ctx)
	}()
	url := "http://" + ln.Addr().String()
	fmt.Printf("incr-smoke: in-process dcatch-serve on %s, cache dir %s\n", url, dir)

	tr := bench.SyntheticTraceBounded(records, 42)
	hcfg := hb.Config{ReachBackend: hb.BackendChain}
	budget, err := bench.IncrMemBudget(tr, chunk, hcfg)
	if err != nil {
		return err
	}
	hcfg.MemBudget = budget
	mut := bench.MutateTraceSpan(tr, 2)

	if _, err := submitTraceJob(url, tr, chunk, budget); err != nil {
		return fmt.Errorf("base upload: %w", err)
	}
	got, err := submitTraceJob(url, mut, chunk, budget)
	if err != nil {
		return fmt.Errorf("mutated upload: %w", err)
	}

	var opts core.Options
	opts.HB = hcfg
	opts.ChunkSize = chunk
	res, err := core.AnalyzeTrace(mut, opts)
	if err != nil {
		return err
	}
	if want := serve.RenderTrace(res); got != want {
		return fmt.Errorf("incr-smoke: served report diverged from the uncached local analysis (%d vs %d bytes)", len(got), len(want))
	}
	counters := rec.Counters()
	hits, misses := counters["scancache.hits"], counters["scancache.misses"]
	promHits, err := scrapeCounter(url+"/metrics", "dcatch_scancache_hits")
	if err != nil {
		return err
	}
	if hits <= 0 || promHits <= 0 {
		return fmt.Errorf("incr-smoke: no window-scan cache hits (recorder %d, /metrics %d)", hits, promHits)
	}
	fmt.Printf("incr-smoke: report byte-identical, %d window-scan hits / %d misses (/metrics dcatch_scancache_hits=%d)\n",
		hits, misses, promHits)
	return nil
}

// submitTraceJob uploads a binary trace to a dcatch-serve instance with the
// chunked-analysis options, waits for the job, and returns the report text.
func submitTraceJob(url string, tr *trace.Trace, chunk int, budget int64) (string, error) {
	resp, err := http.Post(
		fmt.Sprintf("%s/v1/jobs?reach=chain&chunk_size=%d&mem_budget=%d", url, chunk, budget),
		"application/octet-stream", bytes.NewReader(tr.Encode()))
	if err != nil {
		return "", err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("submit: %s: %s", resp.Status, body)
	}
	var st serve.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return "", fmt.Errorf("submit: bad status body: %w", err)
	}
	deadline := time.Now().Add(5 * time.Minute)
	for st.State == serve.StateQueued || st.State == serve.StateRunning {
		if time.Now().After(deadline) {
			return "", fmt.Errorf("job %s: timed out in state %s", st.ID, st.State)
		}
		time.Sleep(50 * time.Millisecond)
		r, err := http.Get(url + "/v1/jobs/" + st.ID)
		if err != nil {
			return "", err
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if err := json.Unmarshal(b, &st); err != nil {
			return "", fmt.Errorf("job %s: bad status body: %w", st.ID, err)
		}
	}
	if st.State != serve.StateDone {
		return "", fmt.Errorf("job %s: state %s: %s", st.ID, st.State, st.Error)
	}
	r, err := http.Get(url + "/v1/jobs/" + st.ID + "/report")
	if err != nil {
		return "", err
	}
	defer r.Body.Close()
	rep, err := io.ReadAll(r.Body)
	if err != nil {
		return "", err
	}
	if r.StatusCode != http.StatusOK {
		return "", fmt.Errorf("report: %s: %s", r.Status, rep)
	}
	return string(rep), nil
}

// scrapeCounter fetches a Prometheus-format /metrics page and returns the
// named counter's value.
func scrapeCounter(metricsURL, name string) (int64, error) {
	resp, err := http.Get(metricsURL)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("metrics: bad %s value %q", name, fields[1])
			}
			return int64(v), nil
		}
	}
	return 0, fmt.Errorf("metrics: no %s counter exposed", name)
}

// parsePcts parses the -incr-mutate list ("0,1,5,25"); zero is a valid
// entry (a pure rerun), negatives are not.
func parsePcts(s string) ([]float64, error) {
	var pcts []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || f < 0 || f > 100 {
			return nil, fmt.Errorf("dcatch-bench: bad -incr-mutate entry %q", part)
		}
		pcts = append(pcts, f)
	}
	return pcts, nil
}

// parseSizes parses a comma-separated list of positive sizes or counts
// ("100000,300000,1000000").
func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("dcatch-bench: bad size list entry %q", part)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}
