// Command dcatch-serve runs DCatch detection as a long-running HTTP
// service: concurrent analysis jobs behind a bounded worker pool, a
// content-addressed report cache, backpressure (429) when the queue is
// full, and graceful drain on SIGTERM. Subject jobs run the full pipeline
// on a registered benchmark; uploaded binary traces are analyzed TA-only.
//
// Usage:
//
//	dcatch-serve -addr 127.0.0.1:8080
//	dcatch-serve -addr :8080 -workers 8 -queue 128 -mem-budget 2147483648 -v
//
// Submit with the dcatch CLI (dcatch -submit http://host:8080 -bench ...)
// or plain HTTP; see the README's "Serving" section for a curl walkthrough.
//
// Cluster mode shards one uploaded trace across several instances:
//
//	dcatch-serve -addr :8081 -worker                 # window-scan worker
//	dcatch-serve -addr :8082 -worker                 # another
//	dcatch-serve -addr :8080 -peers http://127.0.0.1:8081,http://127.0.0.1:8082
//
// The coordinator streams chunk windows to the workers as the upload
// arrives and folds the replies into a report byte-identical to the
// single-node chunked path; see the README's "Cluster mode" section.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dcatch/internal/cluster"
	"dcatch/internal/obs"
	"dcatch/internal/scancache"
	"dcatch/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers  = flag.Int("workers", 0, "analysis worker pool size (0 = all CPUs)")
		queue    = flag.Int("queue", 0, "job queue depth (0 = default 64)")
		memBudg  = flag.Int64("mem-budget", 0, "server-wide analysis memory admission budget in bytes (0 = unlimited)")
		jobBytes = flag.Int64("job-bytes", 0, "admission estimate for jobs without their own mem_budget (0 = default 64 MiB)")
		maxBody  = flag.Int64("max-body", 0, "request body size limit in bytes (0 = default 64 MiB)")
		cacheN   = flag.Int("cache", 0, "report cache entries (0 = default 256, negative disables)")
		noJobObs = flag.Bool("no-job-telemetry", false, "disable per-job recorders (/metrics keeps service-level data only)")
		worker   = flag.Bool("worker", false, "serve the window-scan RPC so this instance can join a cluster as a worker")
		wScans   = flag.Int("worker-scans", 0, "with -worker: concurrent remote window scans (0 = same as -workers)")
		peers    = flag.String("peers", "", fmt.Sprintf("comma-separated worker base URLs; trace jobs are sharded across them (coordinator mode) in chunk_size-record windows (default %d)", cluster.DefaultChunkSize))
		scDir    = flag.String("scancache-dir", "", "persistent window-scan cache directory (empty = memory-only cache when -scancache-mem > 0)")
		scMem    = flag.Int64("scancache-mem", 0, "in-memory window-scan cache budget in bytes (0 with no -scancache-dir disables the cache; 0 with -scancache-dir = default 256 MiB)")
		scDisk   = flag.Int64("scancache-disk", 0, "with -scancache-dir: on-disk cache budget in bytes (0 = default 1 GiB)")
		drainFor = flag.Duration("drain-timeout", 2*time.Minute, "how long SIGTERM waits for accepted jobs to finish")
		verbose  = flag.Bool("v", false, "log job progress to stderr")
		version  = flag.Bool("version", false, "print the tool version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.Version())
		return
	}

	rec := obs.New()
	if *verbose {
		rec.SetLog(os.Stderr)
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	var sc *scancache.Cache
	if *scDir != "" || *scMem > 0 {
		var err error
		sc, err = scancache.New(scancache.Config{
			MaxBytes:     *scMem,
			Dir:          *scDir,
			DiskMaxBytes: *scDisk,
			Obs:          rec,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	s := serve.New(serve.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		MemBudget:       *memBudg,
		DefaultJobBytes: *jobBytes,
		MaxBodyBytes:    *maxBody,
		CacheEntries:    *cacheN,
		NoJobTelemetry:  *noJobObs,
		Worker:          *worker,
		WorkerScans:     *wScans,
		Peers:           peerList,
		ScanCache:       sc,
		Obs:             rec,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	mode := ""
	if *worker {
		mode = ", worker"
	}
	if len(peerList) > 0 {
		mode += fmt.Sprintf(", coordinating %d peer(s)", len(peerList))
	}
	fmt.Printf("dcatch-serve listening on http://%s (POST /v1/jobs, GET /healthz, /readyz, /metrics, /debug/vars%s)\n", ln.Addr(), mode)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "dcatch-serve: %v: draining (up to %v)\n", got, *drainFor)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	// Drain jobs first while the HTTP listener stays up: new submissions
	// get 503 but clients can still poll status and fetch reports for work
	// that was accepted. Only then close the HTTP side.
	s.Shutdown(ctx)
	httpCtx, httpCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer httpCancel()
	if err := httpSrv.Shutdown(httpCtx); err != nil {
		fmt.Fprintf(os.Stderr, "dcatch-serve: http shutdown: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "dcatch-serve: drained, exiting")
}
