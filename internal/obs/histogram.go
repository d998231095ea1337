package obs

import (
	"math/bits"
	"sync"
)

// Histogram is a concurrent-safe, fixed log-bucketed value histogram for
// latency and size distributions: service-tier quantities whose range spans
// many orders of magnitude and whose exact values matter less than their
// percentiles. Values are non-negative int64s in whatever unit the caller
// picks (the serve tier records microseconds, suffixing names with "_us").
//
// Buckets are exact for 0..7 and log-spaced above: each power-of-two octave
// is split into 8 sub-buckets, so a quantile estimate is off by at most one
// sub-bucket width — a relative error bound of 1/8 — while the whole
// histogram is one flat counter array of ~fixed size (no per-value state).
// Histograms merge by bucket-wise addition, which makes them aggregatable
// across job-scoped Recorders (Registry) and across processes.
//
// Like Recorder, a nil *Histogram accepts every call as a no-op.
type Histogram struct {
	mu       sync.Mutex
	counts   []int64
	count    int64
	sum      int64
	min, max int64
}

// Sub-bucket resolution: 1<<histSubBits buckets per power-of-two octave.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits
	// histBuckets covers exact values 0..histSub-1 plus every octave of a
	// positive int64 at histSub sub-buckets each.
	histBuckets = histSub + (63-histSubBits+1)*histSub
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a value to its bucket. Negative values clamp to 0.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	e := bits.Len64(u) - 1 // 2^e <= u < 2^(e+1), e >= histSubBits
	sub := (u >> uint(e-histSubBits)) & (histSub - 1)
	return histSub + (e-histSubBits)*histSub + int(sub)
}

// bucketUpper returns the largest value mapping into bucket i.
func bucketUpper(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	i -= histSub
	e := i/histSub + histSubBits
	sub := i % histSub
	width := uint64(1) << uint(e-histSubBits)
	lo := uint64(1)<<uint(e) | uint64(sub)*width
	return int64(lo + width - 1)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	if h.counts == nil {
		h.counts = make([]int64, histBuckets)
	}
	h.counts[bucketIndex(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Merge adds every observation of o into h. Merging is commutative and
// associative, so job-scoped histograms aggregate in any order.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	o.mu.Lock()
	var oc []int64
	if o.counts != nil {
		oc = append([]int64(nil), o.counts...)
	}
	count, sum, mn, mx := o.count, o.sum, o.min, o.max
	o.mu.Unlock()
	if count == 0 {
		return
	}
	h.mu.Lock()
	if h.counts == nil {
		h.counts = make([]int64, histBuckets)
	}
	for i, c := range oc {
		h.counts[i] += c
	}
	if h.count == 0 || mn < h.min {
		h.min = mn
	}
	if mx > h.max {
		h.max = mx
	}
	h.count += count
	h.sum += sum
	h.mu.Unlock()
}

// quantileLocked estimates the q-th quantile (0 <= q <= 1) as the upper
// bound of the bucket where the cumulative count crosses q, clamped to the
// observed min/max so exact extremes survive bucketing; 0 on an empty
// histogram. h.mu must be held.
func (h *Histogram) quantileLocked(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	rank := int64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum > rank {
			v := bucketUpper(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// HistogramBucket is one non-empty bucket in an exported histogram:
// the count of observations with value <= UpperBound and > the previous
// bucket's UpperBound.
type HistogramBucket struct {
	UpperBound int64 `json:"le"`
	Count      int64 `json:"count"`
}

// HistogramData is the exportable form of a histogram (registry snapshots,
// the run manifest): summary statistics, the standard
// quantiles, and the non-empty buckets for consumers that want the full
// shape (the Prometheus exporter re-cumulates them).
type HistogramData struct {
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Min     int64             `json:"min"`
	Max     int64             `json:"max"`
	P50     int64             `json:"p50"`
	P90     int64             `json:"p90"`
	P99     int64             `json:"p99"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Export snapshots the histogram.
func (h *Histogram) Export() HistogramData {
	if h == nil {
		return HistogramData{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	d := HistogramData{
		Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
		P50: h.quantileLocked(0.50),
		P90: h.quantileLocked(0.90),
		P99: h.quantileLocked(0.99),
	}
	for i, c := range h.counts {
		if c > 0 {
			d.Buckets = append(d.Buckets, HistogramBucket{UpperBound: bucketUpper(i), Count: c})
		}
	}
	return d
}
