// Command dcatch-trace inspects a binary DCatch trace (written by
// dcatch -trace-out): prints the Table 7 record breakdown, optionally
// dumps records, runs HB trace analysis directly on the file, or follows a
// trace that is still being written and analyzes it incrementally.
//
// Usage:
//
//	dcatch-trace t.bin                    # record breakdown (the default)
//	dcatch-trace -dump -n 50 t.bin        # breakdown, then the first 50 records
//	dcatch-trace -json t.bin
//	dcatch-trace -analyze [-reach chain] [-mem-budget B [-chunk N [-parallel W]]] t.bin
//	dcatch-trace -analyze -peers http://host:8081,http://host:8082 [-chunk N] t.bin
//	dcatch-trace -follow [-poll 50ms] [same analysis flags, except -peers] growing.bin
//
// -chunk N is the fallback for a trace whose reachability closure exceeds
// -mem-budget: it is analyzed in N-record windows, -parallel of them in
// flight (that is all -parallel does), optionally behind a -scancache-*
// window-scan cache. With -peers the windows are sharded across
// dcatch-serve -worker instances; the report stays byte-identical to the
// single-node chunked run over the same options. -follow prints the same
// final report as -analyze with the same flags.
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"dcatch/internal/cluster"
	"dcatch/internal/core"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/scancache"
	"dcatch/internal/serve"
	"dcatch/internal/stream"
	"dcatch/internal/trace"
)

func main() {
	dump := flag.Bool("dump", false, "dump records")
	asJSON := flag.Bool("json", false, "emit the whole trace as JSON")
	n := flag.Int("n", 0, "limit dumped records (0 = all)")
	analyze := flag.Bool("analyze", false, "run HB trace analysis on the file and print the report")
	follow := flag.Bool("follow", false, "tail a growing trace file, analyzing incrementally; provisional candidates go to stderr, the final -analyze-identical report to stdout")
	poll := flag.Duration("poll", 50*time.Millisecond, "with -follow: poll interval while waiting for the file to grow")
	idleTimeout := flag.Duration("idle-timeout", 30*time.Second, "with -follow: give up if the file stops growing for this long before the declared record count (0 = wait forever)")
	parallel := flag.Int("parallel", 0, "with -analyze/-follow and -chunk: windows analysed concurrently on the chunked path (0 = all CPUs)")
	reach := flag.String("reach", "dense", "with -analyze/-follow: reachability backend (dense, chain, auto)")
	chunk := flag.Int("chunk", 0, "with -analyze/-follow: records per window for the chunked fallback (0 = disabled); with -peers: distributed window size (0 = default 50000)")
	memBudget := flag.Int64("mem-budget", 0, "with -analyze/-follow: reachability memory budget in bytes (0 = unlimited)")
	peers := flag.String("peers", "", "with -analyze: comma-separated dcatch-serve -worker base URLs to shard the analysis across")
	scDir := flag.String("scancache-dir", "", "persistent window-scan cache directory: chunked/distributed reruns skip windows whose bytes and options match a cached scan")
	scMem := flag.Int64("scancache-mem", 0, "in-memory window-scan cache budget in bytes (0 with no -scancache-dir disables the cache; 0 with -scancache-dir = default 256 MiB)")
	scDisk := flag.Int64("scancache-disk", 0, "with -scancache-dir: on-disk cache budget in bytes (0 = default 1 GiB)")
	version := flag.Bool("version", false, "print the tool version and exit")
	flag.Parse()
	if *version {
		fmt.Println(obs.Version())
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dcatch-trace [-dump [-n N] | -json | -analyze | -follow] [analysis flags] <trace-file>  (no mode flag: record breakdown)")
		os.Exit(2)
	}
	analysisOptions := func() core.Options {
		var opts core.Options
		opts.HB.Parallelism = *parallel
		backend, err := hb.ParseBackend(*reach)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opts.HB.ReachBackend = backend
		opts.ChunkSize = *chunk
		opts.HB.MemBudget = *memBudget
		if *scDir != "" || *scMem > 0 {
			sc, err := scancache.New(scancache.Config{
				MaxBytes: *scMem, Dir: *scDir, DiskMaxBytes: *scDisk,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			opts.ScanCache = sc
		}
		return opts
	}
	if *follow {
		os.Exit(runFollow(flag.Arg(0), analysisOptions(), *poll, *idleTimeout))
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	tr, err := trace.Decode(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *analyze {
		opts := analysisOptions()
		if *peers != "" {
			os.Exit(runCluster(tr, opts, *peers, *chunk))
		}
		res, err := core.AnalyzeTrace(tr, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// Rendered by the same function dcatch-serve uses for uploaded
		// traces, so local and served reports are byte-identical.
		fmt.Print(serve.RenderTrace(res))
		if res.OOM {
			os.Exit(1)
		}
		return
	}
	if *asJSON {
		if err := tr.EncodeJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	writeBreakdown(os.Stdout, tr, *dump, *n)
}

// writeBreakdown prints the Table 7 record breakdown, the queues by name,
// and with dump the first n records (n <= 0: all).
func writeBreakdown(w io.Writer, tr *trace.Trace, dump bool, n int) {
	s := tr.Stats()
	fmt.Fprintf(w, "program %s: %d records\n", tr.Program, s.Total)
	fmt.Fprintf(w, "  mem=%d rpc=%d socket=%d event=%d thread=%d lock=%d zkpush=%d loopexit=%d\n",
		s.Mem, s.RPC, s.Socket, s.Event, s.Thread, s.Lock, s.ZKPush, s.Other)
	for _, q := range slices.Sorted(maps.Keys(tr.QueueConsumers)) {
		c := tr.QueueConsumers[q]
		kind := "multi-consumer"
		if c == 1 {
			kind = "single-consumer"
		}
		fmt.Fprintf(w, "  queue %s: %d consumer(s), %s\n", q, c, kind)
	}
	if dump {
		for i := range tr.Recs {
			if n > 0 && i >= n {
				fmt.Fprintf(w, "  ... %d more\n", len(tr.Recs)-i)
				break
			}
			fmt.Fprintf(w, "  %s\n", &tr.Recs[i])
		}
	}
}

// runCluster shards -analyze across dcatch-serve -worker peers: the trace is
// cut into chunk windows, each window is scanned by a worker over the
// window-scan RPC (failed windows re-run locally), and the replies fold in
// window order into a report byte-identical to the single-node chunked run.
func runCluster(tr *trace.Trace, opts core.Options, peers string, chunk int) int {
	if chunk <= 0 {
		chunk = 50_000
	}
	var peerList []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	rec := obs.New()
	rec.SetLog(os.Stderr)
	coord, err := cluster.NewCoordinator(cluster.Config{
		Peers:     peerList,
		ChunkSize: chunk,
		HB:        opts.HB,
		Detect:    opts.Detect,
		Obs:       rec,
		Logf:      rec.Logf,
		Cache:     opts.ScanCache,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	t0 := time.Now()
	coord.Notify(tr)
	cres := coord.Finish(tr)
	res := cluster.CoreResult(tr, cres, time.Since(t0))
	fmt.Fprintf(os.Stderr, "cluster: %d windows (%d remote, %d local, %d cached) across %d peer(s) in %v\n",
		cres.Windows, cres.Remote, cres.Local, cres.Cached, len(peerList), time.Since(t0).Round(time.Millisecond))
	fmt.Print(serve.RenderTrace(res))
	if res.OOM {
		return 1
	}
	return 0
}

// runFollow tails a trace file that is still being written: bytes are fed to
// the incremental decoder as the file grows, each completed record runs
// through the streaming engine's online provisional pass (candidates print
// to stderr the moment they appear, long before EOF), and once the declared
// record count has been decoded the authoritative batch finish prints a
// report byte-identical to `dcatch-trace -analyze` on the finished file.
func runFollow(path string, opts core.Options, poll, idle time.Duration) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer f.Close()

	var readBytes int64
	candidates, retractions := 0, 0
	var job *core.TraceJob
	// The declared count is announced once, ahead of the first candidate the
	// same segment may complete.
	declared := false
	declare := func() {
		if want, ok := job.Expected(); ok && !declared {
			declared = true
			fmt.Fprintf(os.Stderr, "follow: %s: %d records declared\n", job.Trace().Program, want)
		}
	}
	job = core.NewTraceJob(opts, func(ev stream.Event) {
		declare()
		switch ev.Kind {
		case stream.EventCandidate:
			candidates++
			fmt.Fprintf(os.Stderr, "follow: provisional candidate at record %d (%d bytes): %s S%d/S%d\n",
				ev.Records, readBytes, ev.Pair.Obj, ev.Pair.AStatic, ev.Pair.BStatic)
		case stream.EventRetract:
			retractions++
			fmt.Fprintf(os.Stderr, "follow: retracted: %s S%d/S%d\n",
				ev.Pair.Obj, ev.Pair.AStatic, ev.Pair.BStatic)
		}
	})

	buf := make([]byte, 256<<10)
	lastGrowth := time.Now()
	for !job.Done() {
		n, rerr := f.Read(buf)
		if n > 0 {
			readBytes += int64(n)
			if _, err := job.Feed(buf[:n]); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			declare()
			lastGrowth = time.Now()
			continue
		}
		if rerr != nil && rerr != io.EOF {
			fmt.Fprintln(os.Stderr, rerr)
			return 1
		}
		// At EOF but before the declared record count: the writer is still
		// going — wait for growth.
		if idle > 0 && time.Since(lastGrowth) > idle {
			want, _ := job.Expected()
			fmt.Fprintf(os.Stderr, "follow: no growth for %v (%d of %d records); giving up\n",
				idle, len(job.Trace().Recs), want)
			return 1
		}
		time.Sleep(poll)
	}

	tr, err := job.Seal()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "follow: trace complete: %d records, %d provisional candidates\n",
		len(tr.Recs), candidates)
	res, err := job.Finish()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if retractions > 0 {
		fmt.Fprintf(os.Stderr, "follow: %d provisional candidates retracted by the final analysis\n", retractions)
	}
	fmt.Print(serve.RenderTrace(res))
	if res.OOM {
		return 1
	}
	return 0
}
