package main

import (
	"slices"
)

// metricDef names one metric of the ledger. BENCHMARK.json lists the same
// names, units and directions (bench_test.go checks the two agree).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off and reported by every workload. failed_share, the seventh, is carried
// by the result's attempted/failed counts because it is 0 on every accepted
// run and so has no relative bound.
var endToEnd = []metricDef{
	{"job_ms_p50", "ms", "lower", 0.25},
	{"records_per_s", "1/s", "higher", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"alloc_mb_per_job", "MB", "lower", 0.05},
	{"reach_mem_mb", "MB", "lower", 0.01},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run; layer = module
// name. A workload reports 0 for a metric of a layer it does not exercise:
// that zero is the "no change expected here" prediction of README.md.
var perLayer = []metricDef{
	{Name: "trace.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "trace.stream_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.window_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.bytes_per_record", Unit: "B", Better: "lower"},

	{Name: "hb.build_ms", Unit: "ms", Better: "lower"},
	{Name: "hb.rules_ms", Unit: "ms", Better: "lower"},
	{Name: "hb.closure_ms", Unit: "ms", Better: "lower"},
	{Name: "hb.eserial_ms", Unit: "ms", Better: "lower"},
	{Name: "hb.eserial_rounds", Unit: "count", Better: "lower"},
	{Name: "hb.edges", Unit: "count", Better: "lower"},
	{Name: "hb.chains", Unit: "count", Better: "lower"},
	{Name: "hb.mem_bytes", Unit: "bytes", Better: "lower"},
	{Name: "hb.budget_check_ms", Unit: "ms", Better: "lower"},
	{Name: "hb.windows", Unit: "count", Better: "lower"},
	{Name: "hb.window_build_ms", Unit: "ms", Better: "lower"},
	{Name: "hb.window_build_ms_max", Unit: "ms", Better: "lower"},

	{Name: "detect.find_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.window_scan_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.report_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.format_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.report_bytes", Unit: "bytes", Better: "lower"},
	{Name: "detect.candidates", Unit: "count", Better: "higher"},
	{Name: "detect.dcws_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.dcws_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "detect.dcws_bytes", Unit: "bytes", Better: "lower"},
	{Name: "detect.windowed_recall", Unit: "share", Better: "higher"},
	{Name: "detect.windowed_precision", Unit: "share", Better: "higher"},

	{Name: "stream.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.eager_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.eager_peak_live_bytes", Unit: "bytes", Better: "lower"},
	{Name: "stream.provisional_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.provisional_candidates", Unit: "count", Better: "lower"},
	{Name: "stream.retractions", Unit: "count", Better: "lower"},

	{Name: "scancache.key_ms", Unit: "ms", Better: "lower"},
	{Name: "scancache.get_mem_ms", Unit: "ms", Better: "lower"},
	{Name: "scancache.get_disk_ms", Unit: "ms", Better: "lower"},
	{Name: "scancache.put_ms", Unit: "ms", Better: "lower"},
	{Name: "scancache.hits", Unit: "count", Better: "higher"},
	{Name: "scancache.misses", Unit: "count", Better: "lower"},
	{Name: "scancache.hit_share", Unit: "share", Better: "higher"},
	{Name: "scancache.entry_bytes", Unit: "bytes", Better: "lower"},

	{Name: "cluster.job_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.worker_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.windows_remote", Unit: "count", Better: "higher"},
	{Name: "cluster.windows_local", Unit: "count", Better: "lower"},
	{Name: "cluster.windows_cached", Unit: "count", Better: "higher"},
	{Name: "cluster.retries_busy", Unit: "count", Better: "lower"},
	{Name: "cluster.request_bytes", Unit: "bytes", Better: "lower"},
	{Name: "cluster.reply_bytes", Unit: "bytes", Better: "lower"},

	{Name: "serve.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.admission_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.decode_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.report_fetch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.job_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "serve.cache_hits", Unit: "count", Better: "higher"},
	{Name: "serve.rejected_429", Unit: "count", Better: "lower"},
	{Name: "serve.events_dropped", Unit: "count", Better: "lower"},

	{Name: "core.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "core.detect_ms", Unit: "ms", Better: "lower"},
	{Name: "core.validate_ms", Unit: "ms", Better: "lower"},
	{Name: "rt.base_run_ms", Unit: "ms", Better: "lower"},
	{Name: "rt.traced_run_ms", Unit: "ms", Better: "lower"},
	{Name: "rt.tracing_slowdown", Unit: "x", Better: "lower"},
	{Name: "rt.steps", Unit: "count", Better: "lower"},
	{Name: "rt.records", Unit: "count", Better: "lower"},
	{Name: "analysis.new_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.prune_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.pruned_share", Unit: "share", Better: "higher"},
	{Name: "trigger.validate_ms", Unit: "ms", Better: "lower"},
	{Name: "trigger.validations", Unit: "count", Better: "lower"},
	{Name: "trigger.harmful", Unit: "count", Better: "higher"},

	{Name: "obs.overhead_share", Unit: "share", Better: "lower"},
	{Name: "layers.closure_share", Unit: "share", Better: "higher"},
	{Name: "layers.tracing_overhead_share", Unit: "share", Better: "lower"},
}

// metricSet maps metric names to measured values.
type metricSet map[string]float64

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(p*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}
