package hb

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"dcatch/internal/trace"
)

func TestBuildChunkedCoversTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := randomTrace(rng, 100)
	chunks, err := BuildChunked(tr, ChunkConfig{ChunkSize: 30, ChunkOverlap: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 4 {
		t.Fatalf("only %d chunks for 100 records", len(chunks))
	}
	// Windows must tile the trace with the configured stride and overlap.
	for i, c := range chunks {
		if i > 0 && c.Start != chunks[i-1].Start+20 {
			t.Fatalf("chunk %d starts at %d, want stride 20", i, c.Start)
		}
		if c.Start+c.Graph.N() > len(tr.Recs) {
			t.Fatalf("chunk %d overruns the trace", i)
		}
	}
	last := chunks[len(chunks)-1]
	if last.Start+last.Graph.N() != len(tr.Recs) {
		t.Fatal("last chunk does not reach the end of the trace")
	}
	if ChunkedMemBytes(chunks) <= 0 {
		t.Fatal("no memory accounting")
	}
}

// TestChunkWindowsBoundaries pins the window arithmetic every consumer of
// ChunkWindows — batch chunking, the stream window engines, the cluster
// coordinator, and the scan cache's per-window keys — relies on agreeing
// about.
func TestChunkWindowsBoundaries(t *testing.T) {
	cases := []struct {
		name             string
		n, size, overlap int
		want             [][2]int
	}{
		// A trace shorter than one window is still one window: the cache
		// must key the tail exactly as the reference scans it.
		{"ShorterThanWindow", 7, 100, 10, [][2]int{{0, 7}}},
		{"ExactlyOneWindow", 100, 100, 10, [][2]int{{0, 100}}},
		// Zero records still produce one empty window, so every path emits
		// a (trivial) scan instead of special-casing emptiness.
		{"ZeroRecords", 0, 100, 10, [][2]int{{0, 0}}},
		// overlap >= size is clamped to size-1: stride 1, never an infinite
		// loop or a zero-length stride.
		{"OverlapEqualsSize", 5, 3, 3, [][2]int{{0, 3}, {1, 4}, {2, 5}}},
		{"OverlapExceedsSize", 5, 3, 7, [][2]int{{0, 3}, {1, 4}, {2, 5}}},
		// overlap <= 0 defaults to size/4.
		{"DefaultOverlap", 200, 100, 0, [][2]int{{0, 100}, {75, 175}, {150, 200}}},
		// An exact multiple of the stride must not emit a zero-length tail.
		{"ExactStrideMultiple", 175, 100, 25, [][2]int{{0, 100}, {75, 175}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := ChunkWindows(tc.n, tc.size, tc.overlap)
			if len(got) != len(tc.want) {
				t.Fatalf("ChunkWindows(%d,%d,%d) = %v, want %v", tc.n, tc.size, tc.overlap, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("ChunkWindows(%d,%d,%d) = %v, want %v", tc.n, tc.size, tc.overlap, got, tc.want)
				}
			}
			// Invariants every consumer assumes: full coverage in order,
			// the last window ends at n, and no window is out of range.
			if got[0][0] != 0 || got[len(got)-1][1] != tc.n {
				t.Fatalf("windows %v do not span [0,%d]", got, tc.n)
			}
			for i, w := range got {
				if w[0] > w[1] || w[1] > tc.n {
					t.Fatalf("window %d = %v out of range", i, w)
				}
				if i > 0 && w[0] >= got[i-1][1] && tc.n > 0 {
					t.Fatalf("gap between windows %v and %v", got[i-1], w)
				}
			}
		})
	}
}

// TestWindowCutterMatchesChunkWindows: however the records arrive — one at a
// time, in random batches, all at once — the cutter yields exactly
// ChunkWindows' list, and that list is the closed-form loop chunked analysis
// was first written as.
func TestWindowCutterMatchesChunkWindows(t *testing.T) {
	closedForm := func(n, size, overlap int) [][2]int {
		if overlap <= 0 {
			overlap = size / 4
		}
		if overlap >= size {
			overlap = size - 1
		}
		var windows [][2]int
		for start := 0; ; start += size - overlap {
			end := min(start+size, n)
			windows = append(windows, [2]int{start, end})
			if end >= n {
				return windows
			}
		}
	}
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 2000; iter++ {
		n, size := rng.Intn(400), 1+rng.Intn(60)
		overlap := rng.Intn(size+10) - 5
		want := ChunkWindows(n, size, overlap)
		if ref := closedForm(n, size, overlap); !reflect.DeepEqual(want, ref) {
			t.Fatalf("ChunkWindows(%d,%d,%d) = %v, closed form %v", n, size, overlap, want, ref)
		}
		c := NewWindowCutter(size, overlap)
		var got [][2]int
		maxBatch := 1 + rng.Intn(3*size)
		for fed := 0; fed < n; {
			fed = min(fed+1+rng.Intn(maxBatch), n)
			for w, ok := c.Next(fed); ok; w, ok = c.Next(fed) {
				if w[1] > fed {
					t.Fatalf("window %v cut with only %d records fed", w, fed)
				}
				got = append(got, w)
			}
			if c.Start() > fed {
				t.Fatalf("open window starts at %d with only %d records fed", c.Start(), fed)
			}
		}
		if w, ok := c.Finish(n); ok {
			got = append(got, w)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d size=%d overlap=%d: cutter %v, ChunkWindows %v", n, size, overlap, got, want)
		}
	}
}

func TestChunkedSoundWithinWindow(t *testing.T) {
	// Within a window, chunked HB must agree with the full graph for
	// ordered pairs whose causal chain lies inside the window; and it
	// never invents order the full graph lacks.
	rng := rand.New(rand.NewSource(5))
	tr := randomTrace(rng, 80)
	full, err := Build(tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := BuildChunked(tr, ChunkConfig{ChunkSize: 40, ChunkOverlap: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range chunks {
		n := ch.Graph.N()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if ch.Graph.HappensBefore(i, j) && !full.HappensBefore(ch.Start+i, ch.Start+j) {
					t.Fatalf("chunk invented order: window (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestChunkedFitsBudgetWhereFullCannot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := randomTrace(rng, 400)
	// A budget the full closure cannot fit: 400 vertices need
	// 400 * ceil(400/64)*8 = 22400 bytes.
	budget := int64(6000)
	if _, err := Build(tr, Config{MemBudget: budget}); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("full build should OOM, got %v", err)
	}
	chunks, err := BuildChunked(tr, ChunkConfig{Base: Config{MemBudget: budget}, ChunkSize: 60})
	if err != nil {
		t.Fatalf("chunked build failed under the same budget: %v", err)
	}
	if ChunkedMemBytes(chunks) > budget {
		t.Fatalf("peak window footprint %d exceeds budget %d", ChunkedMemBytes(chunks), budget)
	}
}

func TestChunkedRejectsBadConfig(t *testing.T) {
	tr := &trace.Trace{QueueConsumers: map[string]int{}}
	if _, err := BuildChunked(tr, ChunkConfig{}); err == nil {
		t.Fatal("zero chunk size accepted")
	}
}
