// Package cluster shards one trace-analysis job across a set of
// dcatch-serve worker instances, window by window.
//
// The unit of distribution is the chunk window — the [start, end) list
// hb.WindowCutter gives every windowed topology. The coordinator slices the
// trace at record boundaries (trace.Trace.Window), ships each window's
// binary encoding to a worker over a typed HTTP RPC (POST /v1/cluster/scan),
// and folds the returned detect.WindowScan wire payloads in strict
// window-index order (window.Fold). A worker scans its window with the same
// window.Engine the single-node replay calls, so the rendered report is
// byte-identical to that path — regardless of how replies race back.
//
// The peer protocol follows the request/response node shape common to
// replicated state machines (see ROADMAP item 2): typed messages (a
// ScanRequest riding the query string plus a binary trace segment; a binary
// WindowScan reply), per-peer bounded queues drained by a fixed number of
// in-flight requests, and failure-tolerant dispatch — a worker answering
// 429 is retried with exponential backoff, a worker that keeps failing is
// marked down, and any window that cannot be scanned remotely is re-run
// locally by the coordinator. A dead worker therefore degrades the job to
// slower, never to wrong.
package cluster

import (
	"fmt"
	"net/url"
	"strconv"

	"dcatch/internal/detect"
	"dcatch/internal/hb"
)

// ScanPath is the worker's window-scan RPC endpoint.
const ScanPath = "/v1/cluster/scan"

// ScanRequest is the typed request half of the window-scan RPC. It rides
// the query string of a POST whose body is the binary-encoded trace
// segment; the reply body is a binary detect.WindowScan (see
// detect.DecodeWindowScan) plus ScanResponse headers.
//
// The request carries only the option subset that changes the scan's bytes:
// reachability backend, per-location subsampling cap and the per-window
// memory budget. Unknown query parameters are ignored, so a coordinator one
// version behind (still sending scan=) keeps working. The HB rule-ablation
// switches (Table 9) do not travel: they are a local experiment knob, not a
// job option, and the coordinator refuses configs that set them so remote
// and local-fallback scans can never diverge.
type ScanRequest struct {
	// Window is the window's index in the job's window list; Start is its
	// first record's index in the full trace. Both are diagnostic — the
	// scan itself is position-independent and the coordinator rebases
	// record indices at merge time.
	Window int
	Start  int

	// Reach names the hb reachability backend, as accepted by
	// hb.ParseBackend.
	Reach string

	// MaxGroup is detect.Options.MaxGroup (0 = default).
	MaxGroup int

	// MemBudget bounds the window's reachability closure in bytes and is
	// the admission weight the worker charges against its memory gate
	// (0 = the worker's default job size).
	MemBudget int64
}

// query renders the request onto a URL query string.
func (r ScanRequest) query() url.Values {
	q := url.Values{}
	q.Set("window", strconv.Itoa(r.Window))
	q.Set("start", strconv.Itoa(r.Start))
	if r.Reach != "" {
		q.Set("reach", r.Reach)
	}
	if r.MaxGroup > 0 {
		q.Set("max_group", strconv.Itoa(r.MaxGroup))
	}
	if r.MemBudget > 0 {
		q.Set("mem_budget", strconv.FormatInt(r.MemBudget, 10))
	}
	return q
}

// parseScanRequest decodes and validates the query-string form.
func parseScanRequest(q url.Values) (ScanRequest, error) {
	var r ScanRequest
	intField := func(name string, dst *int) error {
		s := q.Get(name)
		if s == "" {
			return nil
		}
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			return fmt.Errorf("cluster: bad %s %q", name, s)
		}
		*dst = v
		return nil
	}
	if err := intField("window", &r.Window); err != nil {
		return r, err
	}
	if err := intField("start", &r.Start); err != nil {
		return r, err
	}
	if err := intField("max_group", &r.MaxGroup); err != nil {
		return r, err
	}
	if s := q.Get("mem_budget"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v < 0 {
			return r, fmt.Errorf("cluster: bad mem_budget %q", s)
		}
		r.MemBudget = v
	}
	r.Reach = q.Get("reach")
	if _, err := hb.ParseBackend(reachOrDefault(r.Reach)); err != nil {
		return r, err
	}
	return r, nil
}

func reachOrDefault(s string) string {
	if s == "" {
		return "dense"
	}
	return s
}

// scanConfigs materializes the hb/detect option pair a request describes.
func (r ScanRequest) scanConfigs() (hb.Config, detect.Options, error) {
	var hcfg hb.Config
	var dopts detect.Options
	backend, err := hb.ParseBackend(reachOrDefault(r.Reach))
	if err != nil {
		return hcfg, dopts, err
	}
	hcfg.ReachBackend = backend
	hcfg.MemBudget = r.MemBudget
	dopts.MaxGroup = r.MaxGroup
	return hcfg, dopts, nil
}

// Worker reply headers. The scan payload itself is the body; these carry
// the per-window stats the coordinator aggregates into the job result.
const (
	headerBackend  = "X-Dcatch-Scan-Backend"
	headerMemBytes = "X-Dcatch-Scan-Mem-Bytes"
	headerRecords  = "X-Dcatch-Scan-Records"
)
