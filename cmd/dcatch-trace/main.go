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
//	dcatch-trace -analyze [-mem-budget B [-chunk N]] t.bin
//	dcatch-trace -analyze -peers http://host:8081,http://host:8082 [-chunk N] t.bin
//	dcatch-trace -follow [-poll 50ms] [same analysis flags] growing.bin
//
// -chunk N is the fallback for a trace whose reachability closure exceeds
// -mem-budget: it is analyzed in N-record windows, as many in flight as
// there are CPUs, optionally behind a -scancache-* window-scan cache. With
// -peers the windows are sharded across dcatch-serve -worker instances; the
// report stays byte-identical to the single-node chunked run over the same
// options. -analyze and -follow run one trace job, so both print the same
// report; analysis flags need one of them, -poll and -idle-timeout -follow.
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
	chunk := flag.Int("chunk", 0, fmt.Sprintf("with -analyze/-follow: records per window for the chunked fallback (0 = disabled); with -peers: distributed window size (0 = default %d)", cluster.DefaultChunkSize))
	memBudget := flag.Int64("mem-budget", 0, "with -analyze/-follow: reachability admission budget in bytes (0 = unlimited)")
	peers := flag.String("peers", "", "with -analyze/-follow: comma-separated dcatch-serve -worker base URLs to shard the windows across")
	scDir := flag.String("scancache-dir", "", "persistent window-scan cache directory: chunked/distributed reruns skip windows whose bytes and options match a cached scan")
	scMem := flag.Int64("scancache-mem", 0, "in-memory window-scan cache budget in bytes (0 with no -scancache-dir disables the cache; 0 with -scancache-dir = default 256 MiB)")
	scDisk := flag.Int64("scancache-disk", 0, "with -scancache-dir: on-disk cache budget in bytes (0 = default 1 GiB)")
	version := flag.Bool("version", false, "print the tool version and exit")
	flag.Parse()
	if *version {
		fmt.Println(obs.Version())
		return
	}
	misplaced := false
	flag.Visit(func(f *flag.Flag) {
		need, ok := "-analyze or -follow", *analyze || *follow
		switch f.Name {
		case "chunk", "mem-budget", "peers", "scancache-dir", "scancache-mem", "scancache-disk":
		case "poll", "idle-timeout":
			need, ok = "-follow", *follow
		default:
			return
		}
		if !ok {
			misplaced = true
			fmt.Fprintf(os.Stderr, "dcatch-trace: -%s needs %s\n", f.Name, need)
		}
	})
	if flag.NArg() != 1 || misplaced {
		fmt.Fprintln(os.Stderr, "usage: dcatch-trace [-dump [-n N] | -json | -analyze | -follow] [analysis flags] <trace-file>  (no mode flag: record breakdown)")
		os.Exit(2)
	}
	if *analyze || *follow {
		opts := core.Options{ChunkSize: *chunk}
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
		var peerList []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		if len(peerList) > 0 {
			// A coordinated job reports its windows' placement and any
			// peer fallback on stderr.
			opts.Obs = obs.New()
			opts.Obs.SetLog(os.Stderr)
		}
		os.Exit(run(flag.Arg(0), opts, peerList, *follow, *poll, *idleTimeout))
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

// run feeds the trace file at path, segment by segment, to one
// core.TraceJob, local or coordinated across peers, and prints the report
// through dcatch-serve's renderer, so every topology prints the same bytes.
// With follow the file is still being written: at its end the loop polls
// for growth until the declared records are in, and a local job's
// provisional candidates print to stderr the moment they appear.
func run(path string, opts core.Options, peers []string, follow bool, poll, idle time.Duration) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	f, err := os.Open(path)
	if err != nil {
		return fail(err)
	}
	defer f.Close()

	var readBytes int64
	candidates, retractions := 0, 0
	var job *core.TraceJob
	// The declared count is announced once, ahead of the first candidate the
	// same segment may complete.
	declared := false
	declare := func() {
		if want, ok := job.Expected(); ok && follow && !declared {
			declared = true
			fmt.Fprintf(os.Stderr, "follow: %s: %d records declared\n", job.Trace().Program, want)
		}
	}
	var onEvent func(stream.Event)
	if follow {
		onEvent = func(ev stream.Event) {
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
		}
	}
	job, err = core.NewTraceJob(opts, peers, onEvent)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer job.Close()

	buf := make([]byte, 256<<10)
	lastGrowth := time.Now()
	for !job.Done() {
		n, rerr := f.Read(buf)
		if n > 0 {
			readBytes += int64(n)
			if _, err := job.Feed(buf[:n]); err != nil {
				return fail(err)
			}
			declare()
			lastGrowth = time.Now()
			continue
		}
		if rerr != nil && rerr != io.EOF {
			return fail(rerr)
		}
		if !follow {
			break
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

	if follow {
		fmt.Fprintf(os.Stderr, "follow: trace complete: %d records, %d provisional candidates\n",
			len(job.Trace().Recs), candidates)
	}
	res, err := job.Finish() // seals: a file that ends short of its records fails here
	if err != nil {
		return fail(err)
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
