package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"dcatch/internal/cluster"
	"dcatch/internal/core"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/scancache"
	"dcatch/internal/serve"
	"dcatch/internal/subjects"
	"dcatch/internal/subjects/minica"
	"dcatch/internal/subjects/minihb"
	"dcatch/internal/subjects/minimr"
	"dcatch/internal/subjects/minizk"
	"dcatch/internal/trace"
	"dcatch/internal/trigger"
)

// profile fixes every workload's input sizes, budgets and expectations. The
// ledger runs fullProfile; bench_test.go runs the same code on tinyProfile.
type profile struct {
	records        int // bounded-chain trace shared by full/windowed/warm/cluster
	handlerRecords int
	servedRecords  int
	chunk          int

	// Reachability budgets: fullBudget admits the whole bounded trace as one
	// graph, windowBudget refuses it but admits every window, handlerBudget
	// does the same for the handler-heavy trace, servedBudget is what each
	// served upload declares.
	fullBudget, windowBudget, handlerBudget, servedBudget int64

	// golden says the committed seed-1 references describe this profile;
	// the backends and window count are what its inputs must resolve to
	// ("" and 0 = unchecked).
	golden                                     bool
	fullBackend, windowBackend, handlerBackend string
	windows                                    int
}

var fullProfile = profile{
	records: 500_000, handlerRecords: 100_000, servedRecords: 25_000, chunk: 50_000,
	fullBudget: 1 << 30, windowBudget: 160 << 20, handlerBudget: 1 << 30, servedBudget: 64 << 20,
	golden: true, fullBackend: "chain", windowBackend: "chain", handlerBackend: "dense", windows: 13,
}

var tinyProfile = profile{
	records: 5_000, handlerRecords: 2_000, servedRecords: 2_000, chunk: 1_000,
	fullBudget: 1 << 30, windowBudget: 1 << 20, handlerBudget: 256 << 10, servedBudget: 64 << 20,
}

// jobOut is what one job produced and what it cost.
type jobOut struct {
	wall       time.Duration // encoded input bytes → rendered report bytes
	report     string
	candidates int
	records    int
	reach      int64 // declared reachability footprint (what MemBudget admits against)
	err        error
	// extra carries per-job layer values of a traced job that are not spans
	// of the benchmark's own (product span readings and exact counts).
	extra metricSet
}

// instance is one set-up workload.
type instance struct {
	// clients is the number of closed-loop client goroutines (1 unless the
	// workload is served); prep, when set, builds job j's input outside the
	// job clock and is only supported with one client.
	clients int
	prep    func(j int)
	// job runs job j on the product path; job 0 is the discarded warm-up.
	job func(j int) jobOut
	// want returns the reference report of job j, "" when set-up has none
	// (the warm-up job's report then stands in, unless distinct is set
	// because every job's report differs).
	want     func(j int) string
	distinct bool
	// verify, when set, runs after the measured phase, outside every clock.
	verify func() error
	// traced runs job j as explicit calls into each layer, under spans.
	traced func(t *tracer, j int) jobOut
	// probes times single-layer operations no job isolates; ref is the
	// report of the unmutated input.
	probes func(t *tracer, m metricSet, ref string) error
	close  func()
}

// workload is one row of the ledger's workload table.
type workload struct {
	name string
	why  string
	// jobs is the fixed measured-job count (-seconds 0); minJobs is the floor
	// when a run is sized by -seconds instead.
	jobs, minJobs int
	setup         func(p profile, seed int64, traced bool) (*instance, error)
}

var workloads = []workload{
	{"subjects", "the paper's own pipeline on the seven TaxDC bugs of Table 4: rt, analysis and trigger do the work, hb/detect almost none", 15, 8, setupSubjects},
	{"full-500k", "one un-chunked chain-index graph over 500k records: hb.Build and the detect.Find epoch sweep dominate; window engine, cache and RPC are bypassed", 10, 8, setupFull},
	{"windowed-500k", "same trace under a 160 MiB budget: 13 chunked windows with cache and network off, the path the window-engine rewrite touches", 12, 8, setupWindowed},
	{"warm-500k", "same options behind a populated scan cache, each job a 1% mutation: key hashing, DCWS decode and merge of cached scans; windowed-500k is its bypass", 15, 8, setupWarm},
	{"cluster-500k", "same windows through a coordinator and 2 loopback workers: adds segment encode, HTTP and DCWS reply decode, isolating coordination cost", 12, 8, setupCluster},
	{"handlers-100k", "handler-heavy 100k trace with 10k+ chains: dense windows, interval scan, candidate-heavy merge and a 12 MB report", 10, 8, setupHandlers},
	{"served", "200 small uploads through an in-process dcatch-serve with 2 closed-loop clients: streaming decode, queue, admission, telemetry and the report cache", 200, 100, setupServed},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func analysisOptions(budget int64, chunk int) core.Options {
	return core.Options{
		HB:        hb.Config{ReachBackend: hb.BackendAuto, MemBudget: budget},
		ChunkSize: chunk,
	}
}

// analyzeJob is the product path of the trace workloads: encoded trace bytes
// through trace.Decode, core.AnalyzeTrace and Report.Format. chunked and
// backend are the topology the options must resolve to.
func analyzeJob(data []byte, opts core.Options, chunked bool, backend string) jobOut {
	t0 := time.Now()
	tr, err := trace.Decode(bytes.NewReader(data))
	if err != nil {
		return jobOut{err: err}
	}
	t1 := time.Now()
	res, err := core.AnalyzeTrace(tr, opts)
	analyze := time.Since(t1)
	if err != nil {
		return jobOut{err: err}
	}
	if res.OOM {
		return jobOut{err: errors.New("analysis out of memory")}
	}
	report := res.Final.Format(nil)
	out := jobOut{
		wall: time.Since(t0), report: report, candidates: res.Final.CallstackCount(),
		records: len(tr.Recs), reach: res.Stats.HBMemBytes,
		extra: metricSet{"core.analyze_ms": ms(analyze)},
	}
	out.err = checkTopology(res.Chunked, res.Stats.ReachBackend, chunked, backend)
	return out
}

func checkTopology(gotChunked bool, gotBackend string, chunked bool, backend string) error {
	if gotChunked != chunked {
		return fmt.Errorf("analysis chunked=%v, workload expects %v", gotChunked, chunked)
	}
	if backend != "" && gotBackend != backend {
		return fmt.Errorf("analysis resolved to the %s backend, workload expects %s", gotBackend, backend)
	}
	return nil
}

// traceInput is a generated trace with its encoding.
type traceInput struct {
	tr   *trace.Trace
	data []byte
}

// genInput generates and encodes one synthetic trace and, where a digest is
// committed for it, fails on mismatch.
func genInput(n int, seed int64, sh shape) (traceInput, error) {
	tr := synth(n, seed, sh)
	digest := traceDigest(tr)
	if want := golden.Digests[digestKey(sh.program, n, seed)]; want != "" && want != digest {
		return traceInput{}, fmt.Errorf("generated %s trace (%d records, seed %d) has digest %s, committed %s",
			sh.program, n, seed, digest, want)
	}
	return traceInput{tr: tr, data: tr.Encode()}, nil
}

// analysisWorkload wires the instance every core.AnalyzeTrace workload
// shares: one input, one option set, the same report from every job.
func analysisWorkload(in traceInput, opts core.Options, chunked bool, backend string) *instance {
	return &instance{
		clients: 1,
		job:     func(int) jobOut { return analyzeJob(in.data, opts, chunked, backend) },
		want:    func(int) string { return "" },
		traced: func(t *tracer, j int) jobOut {
			return tracedAnalysis(t, j, in.data, opts, chunked, backend)
		},
		close: func() {},
	}
}

func setupFull(p profile, seed int64, traced bool) (*instance, error) {
	in, err := genInput(p.records, seed, boundedShape)
	if err != nil {
		return nil, err
	}
	opts := analysisOptions(p.fullBudget, p.chunk)
	inst := analysisWorkload(in, opts, false, p.fullBackend)
	inst.probes = func(t *tracer, m metricSet, _ string) error {
		probeCodec(t, m, in)
		probeBudgetCheck(t, m, in.tr, opts.HB)
		probeObsOverhead(m, in, opts)
		return nil
	}
	return inst, nil
}

func setupWindowed(p profile, seed int64, traced bool) (*instance, error) {
	in, err := genInput(p.records, seed, boundedShape)
	if err != nil {
		return nil, err
	}
	opts := analysisOptions(p.windowBudget, p.chunk)
	inst := analysisWorkload(in, opts, true, p.windowBackend)
	inst.probes = func(t *tracer, m metricSet, ref string) error {
		probeCodec(t, m, in)
		probeBudgetCheck(t, m, in.tr, opts.HB)
		if err := probeWindows(t, m, in.tr, opts, ref, p.windows); err != nil {
			return err
		}
		if err := probeEager(t, m, in.tr, opts, ref); err != nil {
			return err
		}
		return probeWindowedQuality(m, in.tr, analysisOptions(p.fullBudget, p.chunk), opts)
	}
	return inst, nil
}

func setupHandlers(p profile, seed int64, traced bool) (*instance, error) {
	in, err := genInput(p.handlerRecords, seed, handlerShape)
	if err != nil {
		return nil, err
	}
	opts := analysisOptions(p.handlerBudget, p.chunk)
	inst := analysisWorkload(in, opts, true, p.handlerBackend)
	inst.probes = func(t *tracer, m metricSet, ref string) error {
		probeCodec(t, m, in)
		probeBudgetCheck(t, m, in.tr, opts.HB)
		return probeWindows(t, m, in.tr, opts, ref, 0)
	}
	return inst, nil
}

// benchDir is where the benchmark keeps what it writes: always inside the
// directory it was started from.
const benchDir = ".bench_build"

func tempDir(pattern string) (string, error) {
	root := benchDir + "/tmp"
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, pattern)
}

func setupWarm(p profile, seed int64, traced bool) (*instance, error) {
	in, err := genInput(p.records, seed, boundedShape)
	if err != nil {
		return nil, err
	}
	cold := analysisOptions(p.windowBudget, p.chunk)
	// The uncached windowed report of the unmutated trace: what the warm-up
	// job through the cache must reproduce byte for byte.
	base := analyzeJob(in.data, cold, true, p.windowBackend)
	if base.err != nil {
		return nil, base.err
	}
	dir, err := tempDir("scancache-")
	if err != nil {
		return nil, err
	}
	var rec *obs.Recorder
	if traced {
		rec = obs.New()
	}
	cache, err := scancache.New(scancache.Config{Dir: dir, Obs: rec})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	warm := cold
	warm.ScanCache = cache
	if out := analyzeJob(in.data, warm, true, p.windowBackend); out.err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("populating the scan cache: %w", out.err)
	}

	// Job j > 0 analyses mutation j; its bytes are prepared outside the job
	// clock and only the latest is kept.
	var cur []byte
	var last string // report of the latest mutated job
	input := func(j int) []byte {
		if j == 0 {
			return in.data
		}
		return cur
	}
	note := func(j int, out jobOut) jobOut {
		if j > 0 {
			last = out.report
		}
		return out
	}
	inst := &instance{
		clients:  1,
		distinct: true,
		prep: func(j int) {
			if j > 0 {
				cur = mutateSpan(in.tr, j).Encode()
			}
		},
		job: func(j int) jobOut { return note(j, analyzeJob(input(j), warm, true, p.windowBackend)) },
		want: func(j int) string {
			if j == 0 {
				return base.report
			}
			return ""
		},
		// At a seed without committed references nothing else vouches for a
		// mutated job, so the last one is re-analysed without the cache.
		verify: func() error {
			if last == "" {
				return nil
			}
			uncached := analyzeJob(cur, cold, true, p.windowBackend)
			if uncached.err != nil {
				return uncached.err
			}
			if last != uncached.report {
				return errors.New("warm report of the last mutated trace differs from its uncached analysis")
			}
			return nil
		},
		traced: func(t *tracer, j int) jobOut {
			before := rec.Counters()
			out := note(j, tracedAnalysis(t, j, input(j), warm, true, p.windowBackend))
			if out.extra == nil {
				return out // failed before any layer value was taken
			}
			after := rec.Counters()
			hits := float64(after["scancache.hits"] - before["scancache.hits"])
			misses := float64(after["scancache.misses"] - before["scancache.misses"])
			out.extra["scancache.hits"] = hits
			out.extra["scancache.misses"] = misses
			out.extra["scancache.hit_share"] = hits / max(hits+misses, 1)
			return out
		},
		probes: func(t *tracer, m metricSet, _ string) error {
			probeCodec(t, m, in)
			if err := probeWindows(t, m, in.tr, cold, base.report, p.windows); err != nil {
				return err
			}
			return probeScanCache(t, m, in.tr, cold, cache, dir)
		},
		close: func() { os.RemoveAll(dir) },
	}
	return inst, nil
}

// listen serves h on a loopback port until stop is called.
func listen(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns once stop closes the server
	}()
	return "http://" + ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// meter wraps a cluster worker's handler to measure, from outside, how long
// it was busy and how many bytes crossed it.
type meter struct {
	next                       http.Handler
	busyNs, reqBytes, repBytes atomic.Int64
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (m *meter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	cw := &countingWriter{ResponseWriter: w}
	m.next.ServeHTTP(cw, r)
	m.busyNs.Add(time.Since(t0).Nanoseconds())
	m.reqBytes.Add(r.ContentLength)
	m.repBytes.Add(cw.n)
}

func setupCluster(p profile, seed int64, traced bool) (*instance, error) {
	in, err := genInput(p.records, seed, boundedShape)
	if err != nil {
		return nil, err
	}
	local := analysisOptions(p.windowBudget, p.chunk)
	// The single-node windowed report: what every coordinated job must
	// reproduce byte for byte.
	ref := analyzeJob(in.data, local, true, p.windowBackend)
	if ref.err != nil {
		return nil, ref.err
	}

	const peers = 2
	var meters []*meter
	var urls []string
	var stops []func()
	stopAll := func() {
		for _, stop := range stops {
			stop()
		}
	}
	for i := 0; i < peers; i++ {
		var h http.Handler = cluster.NewWorker(cluster.WorkerConfig{Scans: 1})
		if traced {
			m := &meter{next: h}
			meters = append(meters, m)
			h = m
		}
		mux := http.NewServeMux()
		mux.Handle("POST "+cluster.ScanPath, h)
		base, stop, err := listen(mux)
		if err != nil {
			stopAll()
			return nil, err
		}
		urls = append(urls, base)
		stops = append(stops, stop)
	}
	// metered sums what the workers' meters have seen so far.
	metered := func() (busyNs, reqBytes, repBytes int64) {
		for _, m := range meters {
			busyNs += m.busyNs.Load()
			reqBytes += m.reqBytes.Load()
			repBytes += m.repBytes.Load()
		}
		return
	}
	// One loopback connection per worker.
	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	var rec *obs.Recorder
	if traced {
		rec = obs.New()
	}
	cfg := cluster.Config{
		Peers: urls, ChunkSize: p.chunk, HB: local.HB, InFlight: 1,
		Client: &http.Client{Transport: transport}, Obs: rec,
	}
	// coordinate is the cluster layer's whole part of a job.
	coordinate := func(tr *trace.Trace) (*cluster.Result, error) {
		coord, err := cluster.NewCoordinator(cfg)
		if err != nil {
			return nil, err
		}
		coord.Notify(tr)
		res := coord.Finish(tr)
		switch {
		case res.OOM:
			return nil, fmt.Errorf("coordinated job out of memory: %w", res.Err)
		case res.Remote != res.Windows || res.Local != 0:
			return nil, fmt.Errorf("coordinated job scanned %d of %d windows remotely and %d locally, expects all remote",
				res.Remote, res.Windows, res.Local)
		case p.windows != 0 && res.Windows != p.windows:
			return nil, fmt.Errorf("coordinated job cut %d windows, workload expects %d", res.Windows, p.windows)
		}
		return res, nil
	}
	result := func(t0 time.Time, tr *trace.Trace, res *cluster.Result, report string) jobOut {
		return jobOut{
			wall: time.Since(t0), report: report, candidates: res.Report.CallstackCount(),
			records: len(tr.Recs), reach: res.PeakMemBytes,
		}
	}
	inst := &instance{
		clients: 1,
		job: func(int) jobOut {
			t0 := time.Now()
			tr, err := trace.Decode(bytes.NewReader(in.data))
			if err != nil {
				return jobOut{err: err}
			}
			res, err := coordinate(tr)
			if err != nil {
				return jobOut{err: err}
			}
			return result(t0, tr, res, res.Report.Format(nil))
		},
		want: func(int) string { return ref.report },
		traced: func(t *tracer, j int) jobOut {
			busy0, req0, rep0 := metered()
			retries := rec.Counters()["cluster.retries.busy"]
			t0 := time.Now()
			js := beginJob(t, j)
			defer js.end()
			var tr *trace.Trace
			var err error
			js.time("trace.decode", func() { tr, err = trace.Decode(bytes.NewReader(in.data)) })
			if err != nil {
				return jobOut{err: err}
			}
			var res *cluster.Result
			js.time("cluster.job", func() { res, err = coordinate(tr) })
			if err != nil {
				return jobOut{err: err}
			}
			var report string
			js.time("detect.format", func() { report = res.Report.Format(nil) })
			busy, req, rep := metered()
			out := result(t0, tr, res, report)
			out.extra = metricSet{
				"cluster.worker_busy_ms": float64(busy-busy0) / 1e6,
				"cluster.request_bytes":  float64(req - req0),
				"cluster.reply_bytes":    float64(rep - rep0),
				"cluster.windows_remote": float64(res.Remote),
				"cluster.windows_local":  float64(res.Local),
				"cluster.windows_cached": float64(res.Cached),
				"cluster.retries_busy":   float64(rec.Counters()["cluster.retries.busy"] - retries),
				"detect.candidates":      float64(res.Report.CallstackCount()),
				"detect.report_bytes":    float64(len(report)),
			}
			return out
		},
		probes: func(t *tracer, m metricSet, _ string) error {
			probeCodec(t, m, in)
			if err := probeWindows(t, m, in.tr, local, ref.report, p.windows); err != nil {
				return err
			}
			// The single-node replay of the same windows: what the cluster
			// job's time is compared against to isolate coordination cost.
			var walls []float64
			for i := 0; i < 3; i++ {
				var err error
				walls = append(walls, probeSpan(t, "stream.replay", -1, func() { _, err = replay(in.tr, local) }))
				if err != nil {
					return err
				}
			}
			m["stream.replay_ms"] = median(walls)
			m["cluster.overhead_ms"] = m["cluster.job_ms"] - m["stream.replay_ms"]
			return nil
		},
		close: func() {
			transport.CloseIdleConnections()
			stopAll()
		},
	}
	return inst, nil
}

// table4Subjects builds the seven benchmarks of Table 4 from the mini
// systems directly, in the paper's order.
func table4Subjects() []*subjects.Benchmark {
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

// validateSteps is the step budget of every triggering-module replay.
const validateSteps = 200_000

// subjectsJob runs the paper's pipeline on all seven subjects and checks the
// Table 4 oracle: every ground-truth bug detected and, per subject, at least
// the committed number of harmful verdicts. t may be nil.
func subjectsJob(benches []*subjects.Benchmark, t *tracer, j int) (out jobOut) {
	t0 := time.Now()
	js := beginJob(t, j)
	defer js.end()
	timed := js.time
	var sb strings.Builder
	var errs []error
	var validations, harmfulTotal int
	for _, b := range benches {
		var res *core.Result
		var err error
		timed("core.detect", func() {
			res, err = core.Detect(b.Workload, core.Options{Seed: b.Seed, MaxSteps: b.MaxSteps})
		})
		if err != nil || res.OOM {
			return jobOut{err: fmt.Errorf("%s: detection failed (oom=%v): %v", b.ID, res != nil && res.OOM, err)}
		}
		var vals []trigger.Validation
		timed("core.validate", func() {
			vals = core.ValidateAll(res, core.TriggerOptions{MaxSteps: validateSteps})
		})
		timed("serve.render", func() { sb.WriteString(serve.RenderSubject(b, res, vals, true)) })

		found, missing := b.DetectedBugs(res.Final)
		harmful := 0
		for _, v := range vals {
			if v.Verdict == trigger.VerdictHarmful {
				harmful++
			}
		}
		if len(missing) > 0 {
			errs = append(errs, fmt.Errorf("%s: detected %d of %d ground-truth bugs", b.ID, found, len(b.Bugs)))
		}
		if want := table4MinHarmful(b.ID); harmful < want {
			errs = append(errs, fmt.Errorf("%s: %d harmful verdicts, Table 4 reference requires at least %d", b.ID, harmful, want))
		}
		validations += len(vals)
		harmfulTotal += harmful
		out.candidates += res.Final.CallstackCount()
		out.records += res.Stats.TraceRecords
		out.reach = max(out.reach, res.Stats.HBMemBytes)
	}
	out.wall = time.Since(t0)
	out.report = sb.String()
	out.err = errors.Join(errs...)
	out.extra = metricSet{
		"trigger.validations": float64(validations),
		"trigger.harmful":     float64(harmfulTotal),
		"detect.candidates":   float64(out.candidates),
		"detect.report_bytes": float64(len(out.report)),
	}
	return out
}

func setupSubjects(p profile, seed int64, traced bool) (*instance, error) {
	benches := table4Subjects()
	// The reference every job must reproduce; the subjects run under their
	// registered seeds, so it is the same at every benchmark seed.
	ref := subjectsJob(benches, nil, 0)
	if ref.err != nil {
		return nil, ref.err
	}
	return &instance{
		clients: 1,
		job:     func(int) jobOut { return subjectsJob(benches, nil, 0) },
		want:    func(int) string { return ref.report },
		traced:  func(t *tracer, j int) jobOut { return subjectsJob(benches, t, j) },
		probes:  func(t *tracer, m metricSet, _ string) error { return probeSubjects(t, m, benches) },
		close:   func() {},
	}, nil
}
