package serve

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dcatch/internal/cluster"
	"dcatch/internal/trace"
)

// clusterRacyTrace builds a trace big enough for several 500-record windows
// whose unsynchronized conflicts land in every window, encoded for upload.
// The memory budget below is chosen so the full dense closure exceeds it but
// each window fits: the single-node job is forced onto the chunked fallback,
// which is the exact path cluster jobs must match byte for byte.
func clusterRacyTrace(n int) *trace.Trace {
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

const (
	clusterTestChunk  = 500
	clusterTestBudget = 100_000
)

var clusterTestOptions = JobOptions{MemBudget: clusterTestBudget, ChunkSize: clusterTestChunk}

// clusterWant runs the single-node path on a fresh server and returns its
// report — the bytes every cluster configuration must reproduce.
func clusterWant(t *testing.T, raw []byte) string {
	t.Helper()
	_, c := newTestServer(t, Config{})
	st, err := c.SubmitTrace(bytes.NewReader(raw), clusterTestOptions)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, c, st.ID)
	if st.State != StateDone {
		t.Fatalf("single-node job finished %s: %s", st.State, st.Error)
	}
	rep, err := c.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return string(rep)
}

// newWorkerPool starts n worker-mode servers and returns their base URLs.
func newWorkerPool(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		_, wc := newTestServer(t, Config{Worker: true, WorkerScans: 2})
		urls[i] = wc.Base
	}
	return urls
}

// TestClusterTraceByteIdentical shards an uploaded trace across two worker
// instances and asserts the coordinator's report matches the single-node
// chunked run exactly, with every window scanned remotely.
func TestClusterTraceByteIdentical(t *testing.T) {
	raw := clusterRacyTrace(2600).Encode()
	want := clusterWant(t, raw)

	s, _ := newTestServer(t, Config{Peers: newWorkerPool(t, 2)})
	req := httptest.NewRequest("POST", "/v1/jobs?mem_budget=100000&chunk_size=500", nil)
	j, err := s.submitTrace(bytes.NewReader(raw), req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := s.WaitTerminal(ctx, j.id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("cluster job finished %s: %s", st.State, st.Error)
	}
	j.mu.Lock()
	got := string(j.result.report)
	j.mu.Unlock()
	if got != want {
		t.Fatalf("cluster report differs from single-node chunked:\n-- cluster --\n%s\n-- single --\n%s", got, want)
	}
	ctr := j.rec.Counters()
	if ctr["cluster.windows.remote"] == 0 {
		t.Error("no window was scanned remotely")
	}
	if ctr["cluster.windows.local"] != 0 {
		t.Errorf("cluster.windows.local = %d with healthy workers", ctr["cluster.windows.local"])
	}
	if ctr["serve.upload_segments"] == 0 {
		t.Error("segmented ingest telemetry missing on the cluster path")
	}
}

// TestClusterCacheHit: resubmitting the identical trace and options must be
// served from the cache without re-dispatching to the workers.
func TestClusterCacheHit(t *testing.T) {
	raw := clusterRacyTrace(1300).Encode()
	_, c := newTestServer(t, Config{Peers: newWorkerPool(t, 1)})
	st1, err := c.SubmitTrace(bytes.NewReader(raw), clusterTestOptions)
	if err != nil {
		t.Fatal(err)
	}
	st1 = waitDone(t, c, st1.ID)
	if st1.State != StateDone {
		t.Fatalf("first job finished %s: %s", st1.State, st1.Error)
	}
	rep1, err := c.Report(st1.ID)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.SubmitTrace(bytes.NewReader(raw), clusterTestOptions)
	if err != nil {
		t.Fatal(err)
	}
	st2 = waitDone(t, c, st2.ID)
	if !st2.CacheHit {
		t.Error("identical resubmission was not a cache hit")
	}
	rep2, err := c.Report(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep1, rep2) {
		t.Error("cached cluster report differs from the original")
	}
}

// TestClusterSingleNodeCacheUnified: a single-node job forced onto the
// chunked path and a cluster job over the same bytes and options produce
// byte-identical reports, so they share one whole-report cache entry — a
// run on either topology must be served from a cache populated by the
// other, in both directions.
func TestClusterSingleNodeCacheUnified(t *testing.T) {
	raw := clusterRacyTrace(1300).Encode()
	run := func(t *testing.T, c *Client) (*JobStatus, []byte) {
		t.Helper()
		st, err := c.SubmitTrace(bytes.NewReader(raw), clusterTestOptions)
		if err != nil {
			t.Fatal(err)
		}
		st = waitDone(t, c, st.ID)
		if st.State != StateDone {
			t.Fatalf("job finished %s: %s", st.State, st.Error)
		}
		rep, err := c.Report(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return st, rep
	}
	t.Run("SingleNodePopulatesCluster", func(t *testing.T) {
		sA, cA := newTestServer(t, Config{})
		st1, rep1 := run(t, cA)
		if st1.CacheHit {
			t.Fatal("first single-node run cannot be a cache hit")
		}
		sB, cB := newTestServer(t, Config{Peers: newWorkerPool(t, 1)})
		sB.mgr.cache = sA.mgr.cache
		st2, rep2 := run(t, cB)
		if !st2.CacheHit {
			t.Error("cluster run missed the single-node chunked entry")
		}
		if !bytes.Equal(rep1, rep2) {
			t.Error("cluster-served report differs from the single-node one")
		}
	})
	t.Run("ClusterPopulatesSingleNode", func(t *testing.T) {
		sA, cA := newTestServer(t, Config{Peers: newWorkerPool(t, 1)})
		st1, rep1 := run(t, cA)
		if st1.CacheHit {
			t.Fatal("first cluster run cannot be a cache hit")
		}
		sB, cB := newTestServer(t, Config{})
		sB.mgr.cache = sA.mgr.cache
		st2, rep2 := run(t, cB)
		if !st2.CacheHit {
			t.Error("single-node chunked run missed the cluster entry")
		}
		if !bytes.Equal(rep1, rep2) {
			t.Error("single-node-served report differs from the cluster one")
		}
	})
}

// TestClusterShutdownDrains: SIGTERM-style shutdown with a cluster job in
// flight must let the in-flight peer calls finish and the job complete with
// the same bytes, not abort it.
func TestClusterShutdownDrains(t *testing.T) {
	raw := clusterRacyTrace(2600).Encode()
	want := clusterWant(t, raw)

	s, _ := newTestServer(t, Config{Peers: newWorkerPool(t, 2)})
	req := httptest.NewRequest("POST", "/v1/jobs?mem_budget=100000&chunk_size=500", nil)
	j, err := s.submitTrace(bytes.NewReader(raw), req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Drain while the coordinator still has peer calls in flight.
	s.Shutdown(ctx)
	st, err := s.WaitTerminal(ctx, j.id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("drained job finished %s: %s", st.State, st.Error)
	}
	j.mu.Lock()
	got := string(j.result.report)
	j.mu.Unlock()
	if got != want {
		t.Fatalf("drained cluster report differs:\n-- drained --\n%s\n-- single --\n%s", got, want)
	}
}

// TestClusterWorkerDiesMidJob: a coordinated upload whose second worker
// drops every connection after its first scan must still finish, with the
// dead peer marked down, its windows re-run locally, and the same bytes as
// the single-node chunked run — a dead peer degrades to slower, never to
// wrong.
func TestClusterWorkerDiesMidJob(t *testing.T) {
	raw := clusterRacyTrace(2600).Encode()
	want := clusterWant(t, raw)

	ws, _ := newTestServer(t, Config{Worker: true, WorkerScans: 2})
	var scans atomic.Int32
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == cluster.ScanPath && scans.Add(1) > 1 {
			panic(http.ErrAbortHandler) // "killed": connection dropped
		}
		ws.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(dying.Close)

	s, _ := newTestServer(t, Config{Peers: []string{newWorkerPool(t, 1)[0], dying.URL}})
	req := httptest.NewRequest("POST", "/v1/jobs?mem_budget=100000&chunk_size=500", nil)
	j, err := s.submitTrace(bytes.NewReader(raw), req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := s.WaitTerminal(ctx, j.id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job with a dead worker finished %s: %s", st.State, st.Error)
	}
	j.mu.Lock()
	got := string(j.result.report)
	j.mu.Unlock()
	if got != want {
		t.Fatalf("report changed after worker death:\n-- cluster --\n%s\n-- single --\n%s", got, want)
	}
	ctr := j.rec.Counters()
	if ctr["cluster.peers.down"] != 1 {
		t.Errorf("cluster.peers.down = %d, want 1", ctr["cluster.peers.down"])
	}
	if ctr["cluster.windows.local"] == 0 {
		t.Error("no window fell back to a local scan")
	}
	if ctr["cluster.windows.remote"] == 0 {
		t.Error("the healthy worker scanned nothing")
	}
}
