package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/lifecycle"
	"dcatch/internal/obs"
	"dcatch/internal/scancache"
	"dcatch/internal/trace"
)

// racyTrace builds a trace whose unsynchronized conflicting accesses land in
// every chunk window, so each shard contributes candidates and the same
// callstack pairs recur across windows.
func racyTrace(n int) *trace.Trace {
	rng := rand.New(rand.NewSource(11))
	c := trace.NewCollector("racy")
	for i := 0; i < n; i++ {
		th := int32(1 + rng.Intn(4))
		kind := trace.KMemRead
		if rng.Intn(2) == 0 {
			kind = trace.KMemWrite
		}
		c.Emit(trace.Rec{
			Node: "n", Thread: th, Ctx: th, CtxKind: trace.CtxRegular,
			Kind: kind, Obj: []string{"n/a", "n/b", "n/c"}[rng.Intn(3)],
			StaticID: int32(10 + rng.Intn(6)),
			Stack:    []int32{int32(100 + rng.Intn(5)), int32(rng.Intn(3))},
		})
	}
	return c.Trace()
}

// oracle renders the single-node chunked report the cluster must match.
func oracle(t *testing.T, tr *trace.Trace, chunk int) string {
	t.Helper()
	chunks, err := hb.BuildChunked(tr, hb.ChunkConfig{ChunkSize: chunk})
	if err != nil {
		t.Fatal(err)
	}
	return detect.FindChunked(chunks, detect.Options{}).Format(nil)
}

func newWorkerServer(t *testing.T, cfg WorkerConfig) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("POST "+ScanPath, NewWorker(cfg))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// override sets *p to v for the rest of the test.
func override[T any](t *testing.T, p *T, v T) {
	old := *p
	*p = v
	t.Cleanup(func() { *p = old })
}

func runJob(t *testing.T, tr *trace.Trace, cfg Config) (*Result, *obs.Recorder) {
	t.Helper()
	rec := obs.New()
	cfg.Obs = rec
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord.Notify(tr)
	return coord.Finish(tr), rec
}

func TestClusterByteIdentical(t *testing.T) {
	tr := racyTrace(2600)
	const chunk = 500
	want := oracle(t, tr, chunk)

	// The second worker answers with a varying delay so replies race back
	// out of dispatch order; the window-ordered fold must not care.
	w1 := newWorkerServer(t, WorkerConfig{Scans: 2})
	delayed := NewWorker(WorkerConfig{Scans: 2})
	var mu atomic.Int32
	w2mux := http.NewServeMux()
	w2mux.HandleFunc("POST "+ScanPath, func(rw http.ResponseWriter, r *http.Request) {
		n := mu.Add(1)
		time.Sleep(time.Duration(n*7%20) * time.Millisecond)
		delayed.ServeHTTP(rw, r)
	})
	w2 := httptest.NewServer(w2mux)
	t.Cleanup(w2.Close)

	res, rec := runJob(t, tr, Config{
		Peers:     []string{w1.URL, w2.URL},
		ChunkSize: chunk,
	})
	if res.OOM {
		t.Fatalf("unexpected OOM: %v", res.Err)
	}
	if got := res.Report.Format(nil); got != want {
		t.Fatalf("cluster report differs from single-node chunked:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if res.Remote != res.Windows || res.Local != 0 {
		t.Fatalf("windows=%d remote=%d local=%d; want all remote", res.Windows, res.Remote, res.Local)
	}
	if mu.Load() == 0 {
		t.Fatal("second worker never scanned a window")
	}
	ctr := rec.Counters()
	if ctr["cluster.windows.remote"] != int64(res.Windows) || ctr["cluster.windows.dispatched"] != int64(res.Windows) {
		t.Fatalf("counters %v inconsistent with %d windows", ctr, res.Windows)
	}
	if res.Backend == "" || res.PeakMemBytes == 0 {
		t.Fatalf("missing aggregated stats: backend=%q peak=%d", res.Backend, res.PeakMemBytes)
	}
}

// TestWorkerDiesMidJob kills one worker after its first scan: its remaining
// windows must be re-run locally and the report must not change.
func TestWorkerDiesMidJob(t *testing.T) {
	tr := racyTrace(2600)
	const chunk = 500
	want := oracle(t, tr, chunk)
	override(t, &retryBackoff, time.Millisecond)
	override(t, &maxBackoff, 2*time.Millisecond)

	w1 := newWorkerServer(t, WorkerConfig{})
	flaky := NewWorker(WorkerConfig{})
	var served atomic.Int32
	w2mux := http.NewServeMux()
	w2mux.HandleFunc("POST "+ScanPath, func(rw http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 1 {
			panic(http.ErrAbortHandler) // connection dropped mid-reply
		}
		flaky.ServeHTTP(rw, r)
	})
	w2 := httptest.NewServer(w2mux)
	t.Cleanup(w2.Close)

	res, rec := runJob(t, tr, Config{Peers: []string{w1.URL, w2.URL}, ChunkSize: chunk})
	if res.OOM {
		t.Fatalf("unexpected OOM: %v", res.Err)
	}
	if got := res.Report.Format(nil); got != want {
		t.Fatalf("report changed after worker death:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if res.Local == 0 {
		t.Fatal("no window fell back to the local scan")
	}
	if res.Remote+res.Local != res.Windows {
		t.Fatalf("remote=%d local=%d windows=%d", res.Remote, res.Local, res.Windows)
	}
	ctr := rec.Counters()
	if ctr["cluster.peer_failures"] == 0 {
		t.Error("cluster.peer_failures not counted")
	}
	if ctr["cluster.peers.down"] != 1 {
		t.Errorf("cluster.peers.down = %d, want 1", ctr["cluster.peers.down"])
	}
}

// TestPeerProbationRecovery kills the only worker mid-job and restarts it
// after the probation deadline: windows dispatched during the outage fall
// back to local scans, the first window after the restart answers the
// probation probe, and every later window — including the Finish tail —
// goes remote again. The report must match the single-node chunked oracle
// throughout.
func TestPeerProbationRecovery(t *testing.T) {
	tr := racyTrace(2600)
	const chunk = 500
	want := oracle(t, tr, chunk)
	override(t, &retryBackoff, time.Millisecond)
	override(t, &maxBackoff, 2*time.Millisecond)
	override(t, &probation, 50*time.Millisecond)

	worker := NewWorker(WorkerConfig{Scans: 2})
	var served atomic.Int32
	var dead atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+ScanPath, func(rw http.ResponseWriter, r *http.Request) {
		served.Add(1)
		if dead.Load() {
			panic(http.ErrAbortHandler) // "killed": connection dropped
		}
		worker.ServeHTTP(rw, r)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	rec := obs.New()
	coord, err := NewCoordinator(Config{
		Peers:     []string{ts.URL},
		ChunkSize: chunk,
		// One slot per peer keeps dispatch serial, so exactly one window
		// probes the restarted worker and recovery is deterministic.
		InFlight: 1,
		Obs:      rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	prefix := func(n int) *trace.Trace {
		return &trace.Trace{Program: tr.Program, Recs: tr.Recs[:n], QueueConsumers: tr.QueueConsumers}
	}
	wait := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; counters %v", what, rec.Counters())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Healthy phase: the first two windows fill and scan remotely.
	coord.Notify(prefix(1000))
	wait(func() bool { return served.Load() >= 2 }, "two remote scans")

	// Outage: the next two windows hit a dead worker. Three consecutive
	// failures mark the peer down; both windows fall back local.
	dead.Store(true)
	coord.Notify(prefix(1800))
	wait(func() bool { return rec.Counters()["cluster.peers.down"] == 1 }, "peer marked down")

	// Restart after the probation deadline: the next window's task is
	// allowed to probe, the probe answers, and remote dispatch resumes.
	time.Sleep(60 * time.Millisecond)
	dead.Store(false)
	coord.Notify(prefix(2600))
	res := coord.Finish(tr)

	if res.OOM {
		t.Fatalf("unexpected OOM: %v", res.Err)
	}
	if got := res.Report.Format(nil); got != want {
		t.Fatalf("report changed across kill/restart:\nwant:\n%s\ngot:\n%s", want, got)
	}
	ctr := rec.Counters()
	if ctr["cluster.peers.down"] != 1 || ctr["cluster.peers.recovered"] != 1 {
		t.Errorf("down=%d recovered=%d, want 1/1", ctr["cluster.peers.down"], ctr["cluster.peers.recovered"])
	}
	if res.Local != 2 {
		t.Errorf("local=%d, want exactly the 2 outage windows", res.Local)
	}
	if res.Remote != res.Windows-2 {
		t.Errorf("remote=%d of %d windows: remote dispatch did not resume after recovery", res.Remote, res.Windows)
	}
	if ctr["cluster.windows.remote"] != int64(res.Remote) {
		t.Errorf("cluster.windows.remote=%d, result remote=%d", ctr["cluster.windows.remote"], res.Remote)
	}
}

// TestBusyRetrySucceeds answers the first two attempts 429; the coordinator
// must back off and retry on the same peer without local fallback.
func TestBusyRetrySucceeds(t *testing.T) {
	tr := racyTrace(1300)
	const chunk = 500
	want := oracle(t, tr, chunk)

	override(t, &retryBackoff, time.Millisecond)
	override(t, &maxBackoff, 2*time.Millisecond)

	// Two slots for the coordinator's two in-flight requests, so the only
	// 429s are the injected ones.
	real := NewWorker(WorkerConfig{Scans: 2})
	var n atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+ScanPath, func(rw http.ResponseWriter, r *http.Request) {
		if n.Add(1) <= 2 {
			rw.Header().Set("Retry-After", "1")
			http.Error(rw, "busy", http.StatusTooManyRequests)
			return
		}
		real.ServeHTTP(rw, r)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	res, rec := runJob(t, tr, Config{Peers: []string{ts.URL}, ChunkSize: chunk})
	if res.OOM || res.Local != 0 || res.Remote != res.Windows {
		t.Fatalf("windows=%d remote=%d local=%d oom=%v; want all remote", res.Windows, res.Remote, res.Local, res.OOM)
	}
	if got := res.Report.Format(nil); got != want {
		t.Fatalf("report differs after busy retries:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if rec.Counters()["cluster.retries.busy"] < 2 {
		t.Errorf("cluster.retries.busy = %d, want >= 2", rec.Counters()["cluster.retries.busy"])
	}
}

// TestAlwaysBusyFallsBackLocal exhausts the bounded retries against a peer
// that never admits work; every window must complete locally.
func TestAlwaysBusyFallsBackLocal(t *testing.T) {
	tr := racyTrace(1300)
	const chunk = 500
	want := oracle(t, tr, chunk)
	override(t, &retries, 2)
	override(t, &retryBackoff, time.Millisecond)
	override(t, &maxBackoff, time.Millisecond)

	mux := http.NewServeMux()
	mux.HandleFunc("POST "+ScanPath, func(rw http.ResponseWriter, r *http.Request) {
		http.Error(rw, "busy", http.StatusTooManyRequests)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	res, _ := runJob(t, tr, Config{Peers: []string{ts.URL}, ChunkSize: chunk})
	if res.OOM {
		t.Fatalf("unexpected OOM: %v", res.Err)
	}
	if res.Remote != 0 || res.Local != res.Windows {
		t.Fatalf("remote=%d local=%d windows=%d; want all local", res.Remote, res.Local, res.Windows)
	}
	if got := res.Report.Format(nil); got != want {
		t.Fatalf("all-local fallback report differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestWorkerDrainRejects: once the host's drainer is closing, new scans are
// refused with 503 so a terminating worker never accepts work it cannot
// finish.
func TestWorkerDrainRejects(t *testing.T) {
	var drain lifecycle.Drainer
	drain.Close(0)
	ts := newWorkerServer(t, WorkerConfig{Drain: &drain})

	tr := racyTrace(100)
	resp, err := http.Post(ts.URL+ScanPath+"?window=0&start=0", "application/octet-stream", bytes.NewReader(tr.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
}

// TestWorkerAdmissionTimeout: an admission gate that never grants memory
// turns into a 429 once admitTimeout elapses — the coordinator's busy
// handling, not an error, absorbs a memory-starved worker.
func TestWorkerAdmissionTimeout(t *testing.T) {
	override(t, &admitTimeout, 10*time.Millisecond)
	ts := newWorkerServer(t, WorkerConfig{
		Admit: func(ctx context.Context, need int64) (func(), error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	tr := racyTrace(100)
	resp, err := http.Post(ts.URL+ScanPath+"?window=0&start=0", "application/octet-stream", bytes.NewReader(tr.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
}

func TestWorkerRejectsBadRequests(t *testing.T) {
	ts := newWorkerServer(t, WorkerConfig{})
	post := func(query string, body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+ScanPath+query, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	tr := racyTrace(50)
	if got := post("?reach=bogus", tr.Encode()); got != http.StatusBadRequest {
		t.Errorf("bad reach: status %d, want 400", got)
	}
	if got := post("?window=-1", tr.Encode()); got != http.StatusBadRequest {
		t.Errorf("negative window: status %d, want 400", got)
	}
	if got := post("", []byte("not a trace")); got != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", got)
	}
}

// TestWorkerIgnoresStaleScanParam pins compatibility with a coordinator one
// version behind: its scan= parameter (every mode rendered the same bytes) is
// ignored, recognised value or not, and the reply — body and stat headers —
// is byte-identical to the same request without it.
func TestWorkerIgnoresStaleScanParam(t *testing.T) {
	ts := newWorkerServer(t, WorkerConfig{})
	body := racyTrace(300).Encode()
	post := func(query string) (int, []byte, http.Header) {
		t.Helper()
		resp, err := http.Post(ts.URL+ScanPath+"?window=2&start=600&reach=chain&max_group=50"+query, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		reply, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, reply, resp.Header
	}
	st, want, wantHdr := post("")
	if st != http.StatusOK || len(want) == 0 {
		t.Fatalf("baseline scan: status %d, %d bytes", st, len(want))
	}
	for _, scan := range []string{"auto", "epoch", "interval", "quadratic", "bogus", ""} {
		st, got, hdr := post("&scan=" + scan)
		if st != http.StatusOK {
			t.Errorf("scan=%s: status %d, want 200", scan, st)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("scan=%s: reply differs from the request without it", scan)
		}
		for _, h := range []string{headerBackend, headerMemBytes, headerRecords} {
			if hdr.Get(h) != wantHdr.Get(h) {
				t.Errorf("scan=%s: %s = %q, want %q", scan, h, hdr.Get(h), wantHdr.Get(h))
			}
		}
	}
}

func TestNewCoordinatorValidation(t *testing.T) {
	base := Config{Peers: []string{"http://localhost:1"}, ChunkSize: 100}
	if _, err := NewCoordinator(Config{ChunkSize: 100}); err == nil {
		t.Error("no peers accepted")
	}
	if _, err := NewCoordinator(Config{Peers: base.Peers}); err == nil {
		t.Error("zero chunk size accepted")
	}
	if _, err := NewCoordinator(Config{Peers: []string{"::bad::"}, ChunkSize: 100}); err == nil {
		t.Error("unparseable peer URL accepted")
	}
	cfg := base
	cfg.HB = hb.Config{DisableRPC: true}
	if _, err := NewCoordinator(cfg); err == nil || !strings.Contains(err.Error(), "ablation") {
		t.Errorf("rule ablation accepted: %v", err)
	}
	cfg = base
	cfg.HB = hb.Config{LoopReads: map[int32][]int32{40: {21}}}
	if _, err := NewCoordinator(cfg); err == nil {
		t.Error("LoopReads accepted")
	}
}

// TestScanRequestQueryRoundTrip pins the wire form of the typed request.
func TestScanRequestQueryRoundTrip(t *testing.T) {
	in := ScanRequest{Window: 3, Start: 1500, Reach: "chain", MaxGroup: 40, MemBudget: 1 << 20}
	out, err := parseScanRequest(in.query())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip changed request: %+v != %+v", out, in)
	}
	if _, err := parseScanRequest(ScanRequest{}.query()); err != nil {
		t.Fatalf("zero request must parse (defaults): %v", err)
	}
}

// TestClusterOOMMatchesChunked: a window whose graph exceeds the memory
// budget remotely is re-run locally, fails there too, and the job reports
// OOM with the single-node chunk error shape.
func TestClusterOOMMatchesChunked(t *testing.T) {
	tr := racyTrace(1300)
	const chunk = 500
	override(t, &retries, 1)
	ts := newWorkerServer(t, WorkerConfig{})
	res, _ := runJob(t, tr, Config{
		Peers:     []string{ts.URL},
		ChunkSize: chunk,
		HB:        hb.Config{MemBudget: 1}, // nothing fits
	})
	if !res.OOM || res.Err == nil {
		t.Fatalf("want OOM result, got %+v", res)
	}
	if want := fmt.Sprintf("hb: chunk [%d,%d):", 0, chunk); !strings.Contains(res.Err.Error(), want) {
		t.Fatalf("error %q does not carry the chunk shape %q", res.Err, want)
	}
	if res.Report != nil {
		t.Fatal("OOM result carries a report")
	}
}

// TestCoordinatorFinishCloseIdempotent pins the lifecycle contract: Finish
// twice returns the first Result, Close after Finish and Close twice are
// no-ops.
func TestCoordinatorFinishCloseIdempotent(t *testing.T) {
	tr := racyTrace(1300)
	const chunk = 500
	want := oracle(t, tr, chunk)
	ts := newWorkerServer(t, WorkerConfig{Scans: 2})
	newCoord := func() *Coordinator {
		t.Helper()
		coord, err := NewCoordinator(Config{Peers: []string{ts.URL}, ChunkSize: chunk})
		if err != nil {
			t.Fatal(err)
		}
		return coord
	}

	coord := newCoord()
	coord.Notify(tr)
	first := coord.Finish(tr)
	if first.OOM || first.Report.Format(nil) != want {
		t.Fatalf("first Finish: %+v", first)
	}
	if again := coord.Finish(tr); again != first {
		t.Errorf("second Finish returned %+v, want the first Result", again)
	}
	coord.Close()
	coord.Close()
	if again := coord.Finish(tr); again != first || again.Report.Format(nil) != want {
		t.Error("Close after Finish disturbed the Result")
	}

	abandoned := newCoord()
	abandoned.Notify(tr)
	abandoned.Close()
	abandoned.Close()
}

// postScan posts one scan request and returns the status and reply body.
func postScan(t *testing.T, base string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+ScanPath+"?window=0&start=0&reach=chain", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, reply
}

// holdSlot occupies the worker's only scan slot with a request parked in the
// admission gate, and returns how many admissions were asked for so far and
// a func releasing the parked request.
func holdSlot(t *testing.T, cfg WorkerConfig) (base string, admissions *atomic.Int32, release func()) {
	t.Helper()
	admissions = new(atomic.Int32)
	park, parked := make(chan struct{}), make(chan struct{}, 1)
	cfg.Scans = 1
	cfg.Admit = func(ctx context.Context, need int64) (func(), error) {
		if admissions.Add(1) == 2 { // the second admission is the one that parks
			parked <- struct{}{}
			<-park
		}
		return func() {}, nil
	}
	ts := newWorkerServer(t, cfg)
	if st, _ := postScan(t, ts.URL, racyTrace(200).Encode()); st != http.StatusOK {
		t.Fatalf("warm-up scan: status %d", st)
	}
	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+ScanPath+"?reach=chain", "application/octet-stream", bytes.NewReader(racyTrace(150).Encode()))
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-parked
	return ts.URL, admissions, func() {
		close(park)
		if st := <-done; st != http.StatusOK {
			t.Errorf("parked scan finished with status %d", st)
		}
	}
}

// TestWorkerCacheHitNeedsNoSlot: with every scan slot busy, a worker with a
// cache still answers a window it holds — 200, the cached bytes, no slot and
// no admission — refuses one it does not hold with 429, and, having decoded
// the body to find that out, rejects garbage with 400.
func TestWorkerCacheHitNeedsNoSlot(t *testing.T) {
	cache, err := scancache.New(scancache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	base, admissions, release := holdSlot(t, WorkerConfig{Cache: cache, Obs: rec})
	defer release()

	held := racyTrace(200) // the warm-up window
	g, err := hb.Build(held, hb.Config{ReachBackend: hb.BackendChain})
	if err != nil {
		t.Fatal(err)
	}
	want := detect.ScanGraph(g, detect.Options{}).Encode()
	st, reply := postScan(t, base, held.Encode())
	if st != http.StatusOK || !bytes.Equal(reply, want) {
		t.Errorf("cached window on a busy worker: status %d, reply matches oracle: %v", st, bytes.Equal(reply, want))
	}
	if got := admissions.Load(); got != 2 {
		t.Errorf("%d admissions, want 2 (warm-up and the parked scan): a hit must not ask for one", got)
	}
	if hits := rec.Counters()["cluster.worker.cache_hits"]; hits != 1 {
		t.Errorf("cluster.worker.cache_hits = %d, want 1", hits)
	}
	if st, _ := postScan(t, base, racyTrace(120).Encode()); st != http.StatusTooManyRequests {
		t.Errorf("uncached window on a busy worker: status %d, want 429", st)
	}
	if st, _ := postScan(t, base, []byte("not a trace")); st != http.StatusBadRequest {
		t.Errorf("garbage body on a busy caching worker: status %d, want 400", st)
	}
}

// TestWorkerWithoutCacheRefusesBeforeBody: a worker with no cache has
// nothing to answer for free, so with every slot busy it answers 429 without
// decoding the body — even a body it would otherwise reject with 400.
func TestWorkerWithoutCacheRefusesBeforeBody(t *testing.T) {
	base, _, release := holdSlot(t, WorkerConfig{})
	if st, _ := postScan(t, base, []byte("not a trace")); st != http.StatusTooManyRequests {
		t.Errorf("garbage body on a busy worker: status %d, want 429", st)
	}
	release()
	// The parked handler frees its slot just after its reply is visible.
	st, _ := postScan(t, base, []byte("not a trace"))
	for deadline := time.Now().Add(5 * time.Second); st == http.StatusTooManyRequests && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		st, _ = postScan(t, base, []byte("not a trace"))
	}
	if st != http.StatusBadRequest {
		t.Errorf("garbage body on an idle worker: status %d, want 400", st)
	}
}
