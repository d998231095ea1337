package bench

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"dcatch/internal/cluster"
	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
)

// The cluster scale-out sweep (dcatch-bench -cluster-workers) measures
// distributed detection end to end: one SyntheticTraceBounded trace is
// sharded across N in-process window-scan workers — real loopback HTTP, the
// same cluster.Worker handler dcatch-serve -worker mounts — and the
// coordinator's merged report is compared byte for byte against the
// single-node chunked oracle (hb.BuildChunked + detect.FindChunked) at every
// worker count. Workers run one scan slot each, so on a multi-core host the
// worker count is the job's effective scan parallelism; on a single-core
// host the win comes from overlap (a worker scans while another peer's
// sender would otherwise idle in 429 backoff). Wall times are the minimum
// over reps; divergence at any point fails the run.

// ClusterBenchVersion is the BENCH_cluster.json schema version.
const ClusterBenchVersion = 1

// clusterSweepBudget is the coordinator's total concurrent-request budget,
// split across the peers at every sweep point.
const clusterSweepBudget = 4

// ClusterPoint is one worker-count measurement.
type ClusterPoint struct {
	Workers int `json:"workers"`

	// WallMs is the minimum end-to-end job wall time over the reps:
	// window dispatch (segment encoding included), remote scans, retries,
	// any local fallbacks, and the window-ordered merge.
	WallMs     float64 `json:"wall_ms"`
	JobsPerSec float64 `json:"jobs_per_sec"`

	// RemoteWindows/LocalWindows are from the rep with the minimal wall;
	// a healthy sweep scans everything remotely.
	RemoteWindows int `json:"remote_windows"`
	LocalWindows  int `json:"local_windows"`

	// Busy429Retries counts coordinator backoff retries (summed over reps).
	Busy429Retries int64 `json:"busy_429_retries"`

	// Identical asserts every rep's report matched the single-node oracle.
	Identical bool `json:"reports_identical"`
}

// ClusterBenchResult is BENCH_cluster.json.
type ClusterBenchResult struct {
	SchemaVersion int `json:"cluster_bench_version"`
	Records       int `json:"records"`
	ChunkSize     int `json:"chunk_size"`
	Reps          int `json:"reps"`
	Windows       int `json:"windows"`
	Candidates    int `json:"candidates"`

	Points []ClusterPoint `json:"points"`

	// Identical is the conjunction over all points; MonotoneWall reports
	// whether wall time was non-increasing in the worker count.
	Identical    bool `json:"reports_identical"`
	MonotoneWall bool `json:"monotone_wall"`
}

// JSON renders the result for BENCH_cluster.json.
func (r *ClusterBenchResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// clusterWorkerPool is a set of in-process window-scan workers on loopback
// listeners.
type clusterWorkerPool struct {
	urls    []string
	servers []*http.Server
}

func startClusterWorkers(n int) (*clusterWorkerPool, error) {
	p := &clusterWorkerPool{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			p.close()
			return nil, err
		}
		mux := http.NewServeMux()
		mux.Handle("POST "+cluster.ScanPath, cluster.NewWorker(cluster.WorkerConfig{Scans: 1}))
		hs := &http.Server{Handler: mux}
		go hs.Serve(ln)
		p.servers = append(p.servers, hs)
		p.urls = append(p.urls, "http://"+ln.Addr().String())
	}
	return p, nil
}

func (p *clusterWorkerPool) close() {
	for _, hs := range p.servers {
		hs.Close()
	}
}

// RunClusterSweep measures one trace job at each worker count and gates
// every point on byte identity with the single-node chunked report.
func RunClusterSweep(records, chunkSize int, workerCounts []int, reps int, seed int64, logf func(string, ...any)) (*ClusterBenchResult, error) {
	if reps <= 0 {
		reps = 3
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	tr := SyntheticTraceBounded(records, seed)
	logf("%d-record bounded trace, %d-record windows", len(tr.Recs), chunkSize)

	// The chain backend keeps a 50k-record window's closure small enough to
	// sweep 1M records; the oracle runs the identical configuration.
	hcfg := hb.Config{ReachBackend: hb.BackendChain}
	chunks, err := hb.BuildChunked(tr, hb.ChunkConfig{Base: hcfg, ChunkSize: chunkSize})
	if err != nil {
		return nil, fmt.Errorf("bench: cluster oracle build: %w", err)
	}
	oracleRep := detect.FindChunked(chunks, detect.Options{})
	oracle := oracleRep.Format(nil)

	res := &ClusterBenchResult{
		SchemaVersion: ClusterBenchVersion,
		Records:       records,
		ChunkSize:     chunkSize,
		Reps:          reps,
		Windows:       len(chunks),
		Candidates:    oracleRep.CallstackCount(),
		Identical:     true,
		MonotoneWall:  true,
	}
	for _, wc := range workerCounts {
		pool, err := startClusterWorkers(wc)
		if err != nil {
			return nil, err
		}
		pt := ClusterPoint{Workers: wc, Identical: true}
		for rep := 0; rep < reps; rep++ {
			rec := obs.New()
			// Hold the coordinator's total request budget constant across
			// the sweep (~4 concurrent uploads) so points differ only in
			// worker count, not coordinator capacity: a 1-worker cluster
			// funnels the whole budget at one scan slot and pays for it in
			// 429 backoff churn, a 4-worker cluster gives every sender its
			// own slot. Retries are raised so saturation never falls back
			// to a local scan and muddies the comparison.
			coord, err := cluster.NewCoordinator(cluster.Config{
				Peers:     pool.urls,
				ChunkSize: chunkSize,
				HB:        hcfg,
				InFlight:  (clusterSweepBudget + wc - 1) / wc,
				Retries:   10,
				Obs:       rec,
			})
			if err != nil {
				pool.close()
				return nil, err
			}
			t0 := time.Now()
			coord.Notify(tr)
			cres := coord.Finish(tr)
			wall := time.Since(t0)
			if cres.OOM {
				pool.close()
				return nil, fmt.Errorf("bench: cluster job at %d workers: %w", wc, cres.Err)
			}
			if got := cres.Report.Format(nil); got != oracle {
				pt.Identical = false
			}
			ms := float64(wall.Microseconds()) / 1000
			if rep == 0 || ms < pt.WallMs {
				pt.WallMs = ms
				pt.RemoteWindows, pt.LocalWindows = cres.Remote, cres.Local
			}
			pt.Busy429Retries += rec.Counters()["cluster.retries.busy"]
		}
		pool.close()
		pt.JobsPerSec = 1000 / pt.WallMs
		logf("%d worker(s): %.0fms (%.2f jobs/s), %d remote / %d local windows, %d busy retries, identical=%v",
			wc, pt.WallMs, pt.JobsPerSec, pt.RemoteWindows, pt.LocalWindows, pt.Busy429Retries, pt.Identical)
		if n := len(res.Points); n > 0 && pt.WallMs > res.Points[n-1].WallMs {
			res.MonotoneWall = false
		}
		res.Identical = res.Identical && pt.Identical
		res.Points = append(res.Points, pt)
	}
	if !res.Identical {
		return res, fmt.Errorf("bench: a cluster report diverged from the single-node chunked oracle")
	}
	return res, nil
}
