package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// RegistryVersion is bumped whenever the registry snapshot schema changes
// incompatibly; consumers must check it before interpreting fields.
const RegistryVersion = 1

// Registry aggregates the telemetry of many Recorders — a long-lived base
// recorder (the service's own counters and latency histograms) plus any
// number of job-scoped recorders — and a set of gauge callbacks into one
// exportable metrics surface. Counters sum across recorders, histograms
// merge bucket-wise, and gauges are sampled at snapshot time, so the
// /metrics view of a dcatch-serve process covers both service-level load
// discipline and the analysis work done inside every job.
//
// Export formats: Prometheus text exposition (the default of Handler) and a
// versioned JSON snapshot (?format=json), so both a scraper fleet and a
// program that wants the whole registry consume the same endpoint.
type Registry struct {
	mu     sync.Mutex
	recs   []*Recorder
	gauges map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{gauges: map[string]func() float64{}}
}

// Register adds a recorder to the aggregate. Registering the same recorder
// twice double-counts it; callers own that discipline.
func (g *Registry) Register(r *Recorder) {
	if g == nil || r == nil {
		return
	}
	g.mu.Lock()
	g.recs = append(g.recs, r)
	g.mu.Unlock()
}

// Gauge registers a named gauge callback, sampled at every snapshot.
// Re-registering a name replaces its callback.
func (g *Registry) Gauge(name string, fn func() float64) {
	if g == nil || fn == nil {
		return
	}
	g.mu.Lock()
	g.gauges[name] = fn
	g.mu.Unlock()
}

// RegistrySnapshot is the versioned JSON form of a registry: summed
// counters, sampled gauges and merged histograms across every registered
// recorder. Sources is the recorder count, so consumers can tell an empty
// aggregate from an unwired one.
type RegistrySnapshot struct {
	SchemaVersion int                      `json:"registry_version"`
	Sources       int                      `json:"sources"`
	Counters      map[string]int64         `json:"counters"`
	Gauges        map[string]float64       `json:"gauges"`
	Histograms    map[string]HistogramData `json:"histograms"`
}

// Snapshot aggregates the registry's current state.
func (g *Registry) Snapshot() RegistrySnapshot {
	snap := RegistrySnapshot{
		SchemaVersion: RegistryVersion,
		Counters:      map[string]int64{},
		Gauges:        map[string]float64{},
		Histograms:    map[string]HistogramData{},
	}
	if g == nil {
		return snap
	}
	g.mu.Lock()
	recs := append([]*Recorder(nil), g.recs...)
	gauges := make(map[string]func() float64, len(g.gauges))
	for k, fn := range g.gauges {
		gauges[k] = fn
	}
	g.mu.Unlock()

	snap.Sources = len(recs)
	merged := map[string]*Histogram{}
	for _, r := range recs {
		for k, v := range r.Counters() {
			snap.Counters[k] += v
		}
		for k, h := range r.Histograms() {
			m := merged[k]
			if m == nil {
				m = NewHistogram()
				merged[k] = m
			}
			m.Merge(h)
		}
	}
	for k, h := range merged {
		snap.Histograms[k] = h.Export()
	}
	for k, fn := range gauges {
		snap.Gauges[k] = fn()
	}
	return snap
}

// Handler returns the /metrics endpoint: Prometheus text exposition by
// default, the versioned JSON snapshot with ?format=json.
func (g *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := g.Snapshot()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(snap)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeProm(w, snap)
	})
}

// writeProm renders a snapshot in the Prometheus text exposition format:
// counters and gauges as single samples, histograms as cumulative
// le-labelled bucket series plus _sum and _count. Metric names are the
// dotted dcatch counter names sanitized and prefixed with "dcatch_"; output
// order is sorted, so scrapes of an unchanged registry are byte-identical.
func writeProm(w http.ResponseWriter, snap RegistrySnapshot) {
	names := make([]string, 0, len(snap.Counters))
	for k := range snap.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := promName(k)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, snap.Counters[k])
	}

	names = names[:0]
	for k := range snap.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := promName(k)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", n, n, snap.Gauges[k])
	}

	names = names[:0]
	for k := range snap.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := promName(k)
		h := snap.Histograms[k]
		fmt.Fprintf(w, "# TYPE %s histogram\n", n)
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", n, b.UpperBound, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count)
		fmt.Fprintf(w, "%s_sum %d\n", n, h.Sum)
		fmt.Fprintf(w, "%s_count %d\n", n, h.Count)
	}
}

// promName maps a dotted dcatch metric name onto the Prometheus charset.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("dcatch_")
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
