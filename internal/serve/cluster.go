package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"dcatch/internal/cluster"
	"dcatch/internal/trace"
)

// submitTraceCluster is submitTrace in coordinator mode: the upload goes
// through the same readUpload loop, but its feed is a bare decoder plus
// coord.Notify instead of a core.TraceJob, so every window that fills during
// ingest is dispatched to a peer worker the moment it closes (the bounded
// per-peer queues backpressure the body read). The job's run closure then
// folds the replies in window order — re-running failed windows locally —
// and renders through the shared RenderTrace, so the report is
// byte-identical to the single-node chunked path over the same options.
func (s *Server) submitTraceCluster(body io.Reader, jopt JobOptions) (*job, error) {
	if jopt.ChunkSize <= 0 {
		jopt.ChunkSize = cluster.DefaultChunkSize
	}
	opts, err := coreOptions(jopt)
	if err != nil {
		return nil, err
	}
	tel := s.newJobTelemetry()
	opts.Obs = tel.rec
	coord, err := cluster.NewCoordinator(cluster.Config{
		Peers:     s.cfg.Peers,
		ChunkSize: jopt.ChunkSize,
		HB:        opts.HB,
		Detect:    opts.Detect,
		Obs:       tel.rec,
		Cache:     s.cfg.ScanCache,
	})
	if err != nil {
		return nil, err
	}

	dec := trace.NewStreamDecoder()
	tr, sum, err := readUpload(body, tel.rec, func(seg []byte) (int, error) {
		_, err := dec.Feed(seg)
		if err == nil {
			coord.Notify(dec.Trace())
		}
		return dec.Records(), err
	}, dec.Finish)
	if err != nil {
		coord.Close()
		return nil, err
	}

	run := func() (*jobResult, error) {
		t0 := time.Now()
		cres := coord.Finish(tr)
		res := cluster.CoreResult(tr, cres, time.Since(t0))
		tel.rec.Logf("cluster: %d windows (%d remote, %d local, %d cached) across %d peers",
			cres.Windows, cres.Remote, cres.Local, cres.Cached, len(s.cfg.Peers))
		stats := res.Stats
		return &jobResult{report: []byte(RenderTrace(res)), summary: res.Summary(), stats: &stats, oom: res.OOM}, nil
	}
	key := chunkedTraceCacheKey(sum, jopt)
	j, err := s.mgr.submit(KindTrace, tr.Program, key, jopt.MemBudget, tel, run)
	if err != nil {
		coord.Close()
		return nil, err
	}
	// The coordinator must be released on every terminal path — including a
	// cache hit or a cancel while queued, where run never executes and the
	// peer senders would otherwise park forever. After a normal Finish the
	// close is a no-op.
	go func() {
		<-j.done
		coord.Close()
	}()
	s.reg.Register(tel.rec)
	return j, nil
}

// admitScan charges a remote window scan against the server's admission
// budget — the worker-mode analog of runJob's memGate acquire — so a
// worker's concurrent remote windows and its own local jobs share one
// memory discipline. The context bounds the wait; on timeout the RPC is
// answered 429 and the coordinator backs off.
func (s *Server) admitScan(ctx context.Context, need int64) (func(), error) {
	if need <= 0 {
		need = s.cfg.DefaultJobBytes
	}
	if s.cfg.MemBudget > 0 && need > s.cfg.MemBudget {
		need = s.cfg.MemBudget
	}
	if err := s.mgr.mem.acquire(ctx, need); err != nil {
		return nil, err
	}
	s.rec.Count("serve.admitted.bytes", need)
	return func() { s.mgr.mem.release(need) }, nil
}

// chunkedTraceCacheKey is the content address of a trace job that takes the
// windowed path — a coordinated cluster job (which always chunks at the
// jopt.ChunkSize the coordinator resolved) or a single-node job whose full
// build provably exceeds its budget (hb.FullBuildExceedsBudget, the same
// deterministic admission check hb.Build runs). Both produce byte-identical
// reports over the same bytes and options, so they share one whole-report
// entry; a single-node job that will NOT chunk keeps the distinct
// traceCacheKey, because its unchunked report can legitimately differ.
func chunkedTraceCacheKey(bodySHA []byte, o JobOptions) string {
	h := sha256.New()
	fmt.Fprintf(h, "trace-chunked|%x|%s", bodySHA, optionsKey(o))
	return hex.EncodeToString(h.Sum(nil))
}
