package obs

import (
	"math/rand"
	"sync"
	"testing"
)

// TestBucketRoundTrip locks the log-bucketing invariants: every value lands
// in a bucket whose upper bound is >= the value, and the relative
// over-estimate is bounded by one sub-bucket width (1/8).
func TestBucketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(v int64) {
		i := bucketIndex(v)
		up := bucketUpper(i)
		if up < v {
			t.Fatalf("bucketUpper(bucketIndex(%d)) = %d < value", v, up)
		}
		if i > 0 && bucketUpper(i-1) >= v {
			t.Fatalf("value %d does not belong in bucket %d (prev upper %d)", v, i, bucketUpper(i-1))
		}
		if v >= histSub && float64(up-v) > float64(v)/8+1 {
			t.Fatalf("bucket error for %d: upper %d exceeds 12.5%% bound", v, up)
		}
	}
	for v := int64(0); v < 4096; v++ {
		check(v)
	}
	for i := 0; i < 10_000; i++ {
		check(rng.Int63())
	}
	// Bucket upper bounds are strictly increasing.
	for i := 1; i < histBuckets-histSub; i++ {
		if bucketUpper(i) <= bucketUpper(i-1) {
			t.Fatalf("bucket bounds not increasing at %d: %d <= %d", i, bucketUpper(i), bucketUpper(i-1))
		}
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram()
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	d := h.Export()
	if d.Sum != 500500 || d.Min != 1 || d.Max != 1000 {
		t.Fatalf("export = %+v", d)
	}
	// Quantiles carry the bucketing's 12.5% relative error at most.
	for _, q := range []struct {
		q    float64
		want int64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}} {
		got := h.Quantile(q.q)
		if got < q.want || float64(got) > float64(q.want)*1.13+1 {
			t.Errorf("Quantile(%v) = %d, want within [%d, %.0f]", q.q, got, q.want, float64(q.want)*1.13+1)
		}
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %d, want min 1", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("Quantile(1) = %d, want max 1000", got)
	}
	var total int64
	for _, b := range d.Buckets {
		total += b.Count
	}
	if total != d.Count {
		t.Errorf("bucket counts sum to %d, want %d", total, d.Count)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for v := int64(0); v < 100; v++ {
		a.Observe(v)
		b.Observe(v * 1000)
	}
	a.Merge(b)
	d := a.Export()
	if d.Count != 200 || d.Min != 0 || d.Max != 99_000 {
		t.Fatalf("merged export = %+v", d)
	}
	// Merging an empty histogram is a no-op.
	before := a.Export()
	a.Merge(NewHistogram())
	if got := a.Export(); got.Count != before.Count || got.Sum != before.Sum {
		t.Error("merging an empty histogram changed the target")
	}
}

func TestHistogramNilSafety(t *testing.T) {
	var h *Histogram
	h.Observe(5)
	h.Merge(NewHistogram())
	NewHistogram().Merge(h)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram must read as empty")
	}
	if d := h.Export(); d.Count != 0 {
		t.Fatalf("nil export = %+v", d)
	}
	var r *Recorder
	r.Observe("x", 1)
	if r.Histograms() != nil || r.HistogramData() != nil {
		t.Fatal("nil recorder must return nil histogram data")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(int64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}

func TestRecorderObserve(t *testing.T) {
	r := New()
	r.Observe("lat_us", 10)
	r.Observe("lat_us", 20)
	r.Observe("other", 5)
	d := r.HistogramData()
	if len(d) != 2 || d["lat_us"].Count != 2 || d["other"].Count != 1 {
		t.Fatalf("histogram data = %+v", d)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantile is quantileLocked under the lock.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}
