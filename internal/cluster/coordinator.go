package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dcatch/internal/core"
	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/scancache"
	"dcatch/internal/trace"
	"dcatch/internal/window"
)

// Config configures one coordinated trace job.
type Config struct {
	// Peers lists worker base URLs ("http://host:port"). Required.
	Peers []string

	// ChunkSize is the window length in records (required, > 0);
	// consecutive windows share ChunkSize/4 records, as hb.ChunkWindows.
	ChunkSize int

	// HB and Detect are the per-window analysis options. They serve two
	// roles: their wire-expressible subset (backend, MaxGroup, MemBudget)
	// becomes the ScanRequest sent to every worker, and they
	// drive the local re-run of any window whose remote scan failed —
	// guaranteeing remote and fallback scans agree. Rule-ablation switches
	// and LoopReads are rejected: they cannot ride the wire.
	HB     hb.Config
	Detect detect.Options

	// InFlight is the number of concurrent requests per peer (default 2:
	// one scanning, one pipelined behind it).
	InFlight int

	// Retries bounds attempts per window on its assigned peer (default 5);
	// RetryBackoff is the initial backoff after a 429 or failure, doubling
	// per attempt up to MaxBackoff (defaults 25ms and 400ms). A window
	// that exhausts its attempts is re-run locally.
	Retries      int
	RetryBackoff time.Duration
	MaxBackoff   time.Duration

	// RequestTimeout bounds one scan RPC (default 2m).
	RequestTimeout time.Duration

	// Probation is the initial delay before a peer marked down is probed
	// with a live window again (default 250ms, doubling per failed probe
	// up to 16x). A restarted worker rejoins the job at the next probe
	// instead of staying down until Finish.
	Probation time.Duration

	// Cache, when non-nil, memoizes window scans: a window whose segment
	// bytes and wire options match a cached entry is answered without any
	// dispatch, and every successful remote or local scan populates the
	// cache. The value is the worker's canonical DCWS reply, so cached and
	// fresh replies are indistinguishable by construction.
	Cache *scancache.Cache

	// Client is the HTTP client for peer calls (default http.DefaultClient
	// semantics with no global timeout; per-request contexts apply).
	Client *http.Client

	// Obs receives cluster.* counters/histograms and per-peer scan spans;
	// Logf receives fallback and peer-health notices.
	Obs  *obs.Recorder
	Logf func(format string, args ...any)
}

// Result is the outcome of one coordinated job.
type Result struct {
	// Report is the merged candidate report (nil when OOM).
	Report *detect.Report
	// OOM is set when some window's graph exceeded the memory budget even
	// locally; Err is that first window's error — the same shape the
	// single-node chunked replay reports.
	OOM bool
	Err error
	// Windows counts the job's windows; Remote of them were scanned by
	// peers, Local were re-run by the coordinator after remote failure,
	// and Cached were answered from the scan cache without any dispatch.
	Windows int
	Remote  int
	Local   int
	Cached  int
	// Backend names the first window's reachability backend and
	// PeakMemBytes the largest per-window closure footprint.
	Backend      string
	PeakMemBytes int64
}

// peerDownAfter is how many consecutive hard failures (transport errors or
// non-429 statuses) mark a peer down; its remaining windows fail fast to
// the local fallback instead of burning a timeout each.
const peerDownAfter = 3

var errClosed = errors.New("cluster: coordinator closed")

type task struct {
	index      int
	start, end int
	body       []byte
	key        scancache.Key
	out        chan scanOut
}

type scanOut struct {
	res    window.Result
	remote bool
	err    error
}

type peer struct {
	base  string
	queue chan task
	fails atomic.Int32
	down  atomic.Bool

	// Probation state: while down, one task at a time may probe the peer
	// with its live window once the backoff deadline passes; a successful
	// probe (any live answer, even a 429) recovers the peer, a failed one
	// doubles the wait.
	mu        sync.Mutex
	probeAt   time.Time
	probeWait time.Duration
	probing   bool
}

// markDown flips the peer down and schedules the first probation probe.
// Returns false if the peer was already down.
func (p *peer) markDown(initial time.Duration) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down.Load() {
		return false
	}
	p.probeWait = initial
	p.probeAt = time.Now().Add(initial)
	p.probing = false
	p.down.Store(true)
	return true
}

// allowProbe reports whether the calling task may probe the down peer now;
// at most one probe is in flight at a time.
func (p *peer) allowProbe() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.down.Load() || p.probing || time.Now().Before(p.probeAt) {
		return false
	}
	p.probing = true
	return true
}

// probeFailed reschedules the next probe with a doubled, bounded wait.
func (p *peer) probeFailed(initial time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.probing = false
	p.probeWait *= 2
	if max := 16 * initial; p.probeWait > max {
		p.probeWait = max
	}
	p.probeAt = time.Now().Add(p.probeWait)
}

// recovered clears the down state after a successful probe.
func (p *peer) recovered() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.probing = false
	p.fails.Store(0)
	p.down.Store(false)
}

// Coordinator drives one trace job across the configured peers. It is used
// by a single goroutine: Notify during ingest as the trace grows, then
// Finish once the trace is complete — or Close to abandon the job. Peer
// dispatch and the scans themselves run on internal goroutines; only the
// window-ordered fold in Finish is sequential, which is what makes the
// output deterministic regardless of reply arrival order.
type Coordinator struct {
	cfg  Config
	req  ScanRequest // wire template; Window/Start filled per task
	rec  *obs.Recorder
	logf func(string, ...any)

	// eng answers windows the cache already holds, files peers' replies
	// and re-runs failed windows locally; the scans themselves happen on
	// the peers.
	eng       *window.Engine
	cut       *hb.WindowCutter
	peers     []*peer
	wg        sync.WaitGroup
	closeOnce sync.Once
	aborted   atomic.Bool

	windows [][2]int
	outs    []chan scanOut
	keys    []scancache.Key // per-window cache keys (zero without a cache)
	result  *Result         // set by the first Finish
}

// NewCoordinator validates the config and starts the per-peer senders.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers configured")
	}
	if cfg.ChunkSize <= 0 {
		return nil, fmt.Errorf("cluster: chunk size must be positive, got %d", cfg.ChunkSize)
	}
	if cfg.HB.DisableEvent || cfg.HB.DisableRPC || cfg.HB.DisableSocket || cfg.HB.DisablePush || len(cfg.HB.LoopReads) > 0 {
		return nil, fmt.Errorf("cluster: HB rule ablations and LoopReads are not supported in cluster mode")
	}
	if cfg.Detect.SuppressPull {
		// Not wire-expressible: workers would scan without it while the
		// local fallback applied it, splitting the report.
		return nil, fmt.Errorf("cluster: Detect.SuppressPull is not supported in cluster mode")
	}
	if cfg.InFlight <= 0 {
		cfg.InFlight = 2
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 5
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 400 * time.Millisecond
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Minute
	}
	if cfg.Probation <= 0 {
		cfg.Probation = 250 * time.Millisecond
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	c := &Coordinator{
		cfg: cfg,
		req: ScanRequest{
			Reach:     cfg.HB.ReachBackend.String(),
			MaxGroup:  cfg.Detect.MaxGroup,
			MemBudget: cfg.HB.MemBudget,
		},
		rec:  cfg.Obs,
		logf: cfg.Logf,
		eng:  window.New(cfg.HB, cfg.Detect, cfg.Cache),
		cut:  hb.NewWindowCutter(cfg.ChunkSize, 0),
	}
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	for _, p := range cfg.Peers {
		base := strings.TrimRight(strings.TrimSpace(p), "/")
		u, err := url.Parse(base)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: bad peer URL %q", p)
		}
		pr := &peer{base: base, queue: make(chan task, cfg.InFlight)}
		c.peers = append(c.peers, pr)
		for k := 0; k < cfg.InFlight; k++ {
			c.wg.Add(1)
			go c.peerLoop(pr)
		}
	}
	return c, nil
}

// Notify dispatches every window that has filled within the decoded prefix
// of tr, called from the ingest path as segments arrive. tr may still be
// growing: only that prefix is touched, and each window's segment is keyed
// and (on a cache miss) encoded before Notify returns, so later appends (or
// backing-array reallocation) cannot race the dispatch. Enqueueing blocks
// once the assigned peer's bounded queue is full, which backpressures ingest
// instead of buffering the whole trace in flight.
func (c *Coordinator) Notify(tr *trace.Trace) {
	for wn, ok := c.cut.Next(len(tr.Recs)); ok; wn, ok = c.cut.Next(len(tr.Recs)) {
		c.dispatch(tr, wn)
	}
}

func (c *Coordinator) dispatch(tr *trace.Trace, wn [2]int) {
	i := len(c.windows)
	out := make(chan scanOut, 1)
	view := tr.Window(wn[0], wn[1])
	// The key is a field hash over the window's records, so the lookup
	// skips segment encoding entirely. A hit answers the window right here:
	// nothing ships to a peer, and a resubmitted trace with 1% changed
	// records sends only its dirty windows over the wire.
	key, res, hit := c.eng.Lookup(view)
	c.windows = append(c.windows, wn)
	c.outs = append(c.outs, out)
	c.keys = append(c.keys, key)
	if hit {
		c.rec.Count("cluster.windows.cached", 1)
		out <- scanOut{res: res}
		return
	}
	c.rec.Count("cluster.windows.dispatched", 1)
	c.peers[i%len(c.peers)].queue <- task{index: i, start: wn[0], end: wn[1], body: view.Encode(),
		key: key, out: out}
}

func (c *Coordinator) closeQueues() {
	c.closeOnce.Do(func() {
		for _, p := range c.peers {
			close(p.queue)
		}
	})
}

// Close abandons the job: in-flight scans stop retrying and queued windows
// are discarded. It must not race Notify or Finish — callers invoke it
// after the job reaches a terminal state without Finish having run (for
// example a trace job canceled while still queued).
func (c *Coordinator) Close() {
	c.aborted.Store(true)
	c.closeQueues()
}

// Finish dispatches the tail window, waits for every reply in window-index
// order — re-running any failed window locally — and folds them in that
// order. tr must be the complete trace Notify was fed. Finish is idempotent:
// a second call returns the first call's Result.
func (c *Coordinator) Finish(tr *trace.Trace) *Result {
	if c.result != nil {
		return c.result
	}
	if wn, ok := c.cut.Finish(len(tr.Recs)); ok {
		c.dispatch(tr, wn)
	}
	c.closeQueues()

	sp := c.rec.Span("cluster.merge")
	sp.Attr("windows", len(c.windows))
	sp.Attr("peers", len(c.peers))
	dopts := c.cfg.Detect
	dopts.Obs = sp
	fold := window.NewFold(dopts)
	res := &Result{Windows: len(c.windows)}
	c.result = res
	for i, wn := range c.windows {
		out := <-c.outs[i]
		if out.err != nil && fold.Err == nil {
			// The fallback that makes a dead or saturated worker degrade the
			// job to slower, never wrong; an over-budget window fails here
			// with the single-node replay's exact error.
			c.rec.Count("cluster.windows.local", 1)
			c.logf("cluster: window %d [%d,%d): remote scan failed (%v); re-running locally",
				i, wn[0], wn[1], out.err)
			lsp := sp.Child("cluster.local_scan")
			lsp.Attr("window_start", wn[0])
			out.res, out.err = c.eng.Under(lsp).Fresh(c.keys[i], tr.Window(wn[0], wn[1]), wn[0], wn[1])
			lsp.End()
		}
		if out.err == nil && fold.Err == nil {
			switch {
			case out.res.Cached:
				res.Cached++
			case out.remote:
				res.Remote++
				c.rec.Count("cluster.windows.remote", 1)
			default:
				res.Local++
			}
		}
		fold.Add(out.res, out.err, wn[0])
	}
	c.wg.Wait()
	res.Backend, res.PeakMemBytes = fold.Backend, fold.PeakBytes
	if fold.Err != nil {
		res.OOM, res.Err = true, fold.Err
		sp.Attr("oom", true)
		sp.End()
		return res
	}
	res.Report = fold.Report()
	sp.Attr("remote_windows", res.Remote)
	sp.Attr("local_windows", res.Local)
	sp.Attr("cached_windows", res.Cached)
	sp.End()
	return res
}

func (c *Coordinator) peerLoop(p *peer) {
	defer c.wg.Done()
	for t := range p.queue {
		if c.aborted.Load() {
			t.out <- scanOut{err: errClosed}
			continue
		}
		t.out <- c.scanRemote(p, t)
	}
}

// scanRemote runs one window's RPC with bounded retries. 429 means the
// worker's scan slots (or admission gate) are saturated: back off and try
// again without counting against peer health. Anything else — transport
// errors, 5xx, an undecodable reply — is a hard failure; peerDownAfter of
// those in a row mark the peer down and its remaining windows fail fast.
// A down peer is not down forever: once the probation deadline passes, one
// task at a time probes it with its live window — any answer (even a 429)
// recovers the peer, a failed probe doubles the wait — so a restarted
// worker rejoins the job mid-flight.
func (c *Coordinator) scanRemote(p *peer, t task) scanOut {
	sp := c.rec.Span("cluster.scan")
	sp.Attr("peer", p.base)
	sp.Attr("window", t.index)
	sp.Attr("records", t.end-t.start)
	defer sp.End()
	req := c.req
	req.Window, req.Start = t.index, t.start
	u := p.base + ScanPath + "?" + req.query().Encode()
	backoff := c.cfg.RetryBackoff
	var lastErr error
	probing := false
	endProbe := func(alive bool) {
		if !probing {
			return
		}
		probing = false
		if alive {
			p.recovered()
			c.rec.Count("cluster.peers.recovered", 1)
			c.logf("cluster: peer %s answered its probation probe; resuming remote dispatch", p.base)
		} else {
			p.probeFailed(c.cfg.Probation)
		}
	}
	for attempt := 0; attempt < c.cfg.Retries; attempt++ {
		if c.aborted.Load() {
			endProbe(false)
			return scanOut{err: errClosed}
		}
		if p.down.Load() && !probing {
			if p.allowProbe() {
				probing = true
				c.rec.Count("cluster.peers.probes", 1)
			} else {
				lastErr = fmt.Errorf("cluster: peer %s is down", p.base)
				break
			}
		}
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > c.cfg.MaxBackoff {
				backoff = c.cfg.MaxBackoff
			}
		}
		out, busy, err := c.attempt(u, t)
		if err == nil {
			endProbe(true)
			p.fails.Store(0)
			sp.Attr("attempts", attempt+1)
			return out
		}
		lastErr = err
		if busy {
			endProbe(true) // the peer answered: alive, just saturated
			c.rec.Count("cluster.retries.busy", 1)
			continue
		}
		if probing {
			// Still dead: reschedule and fall back without burning the
			// remaining retries against it.
			endProbe(false)
			break
		}
		c.rec.Count("cluster.peer_failures", 1)
		if p.fails.Add(1) >= peerDownAfter && p.markDown(c.cfg.Probation) {
			c.rec.Count("cluster.peers.down", 1)
			c.logf("cluster: peer %s marked down after %d consecutive failures (%v); probing again in %v",
				p.base, peerDownAfter, err, c.cfg.Probation)
		}
	}
	sp.Attr("failed", true)
	return scanOut{err: lastErr}
}

func (c *Coordinator) attempt(u string, t task) (scanOut, bool, error) {
	t0 := time.Now()
	hreq, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(t.body))
	if err != nil {
		return scanOut{}, false, err
	}
	hreq.Header.Set("Content-Type", "application/octet-stream")
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.RequestTimeout)
	defer cancel()
	resp, err := c.cfg.Client.Do(hreq.WithContext(ctx))
	if err != nil {
		return scanOut{}, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
		return scanOut{}, true, fmt.Errorf("cluster: peer busy (429)")
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return scanOut{}, false, fmt.Errorf("cluster: peer answered %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return scanOut{}, false, err
	}
	ws, err := detect.DecodeWindowScan(body)
	if err != nil {
		return scanOut{}, false, err
	}
	mem, _ := strconv.ParseInt(resp.Header.Get(headerMemBytes), 10, 64)
	// The reply body IS the canonical DCWS payload — stored verbatim, so the
	// next job with this segment skips the wire entirely.
	res := window.Result{Scan: ws, Payload: body, MemBytes: mem, Backend: resp.Header.Get(headerBackend)}
	c.eng.Store(t.key, &res, t.end-t.start)
	c.rec.Observe("cluster.scan_rtt_us", time.Since(t0).Microseconds())
	return scanOut{res: res, remote: true}, false, nil
}

// CoreResult lifts a cluster Result into the *core.Result shape the shared
// renderer consumes, so coordinated jobs print bytes identical to the
// single-node chunked path (serve.RenderTrace renders only the summary
// counts and the final report, both of which the merged report determines).
func CoreResult(tr *trace.Trace, cres *Result, analysis time.Duration) *core.Result {
	res := core.TraceResult(tr, cres.Report, cres.PeakMemBytes, cres.Backend, true)
	res.Stats.AnalysisTime = analysis
	return res
}
