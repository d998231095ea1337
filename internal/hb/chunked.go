package hb

import (
	"fmt"

	"dcatch/internal/trace"
)

// Chunked trace analysis — the mitigation the paper sketches for traces
// whose reachability closure exceeds memory (§7.2: "DCatch will need to
// chunk the traces and conduct detection within each chunk, an approach
// used by previous LCbug detection tools").
//
// The trace is split into windows of ChunkSize records with an overlap of
// ChunkOverlap, and a full HB graph is built per window. Accesses that are
// concurrent within some window are concurrent in the full graph too (a
// window sees a subset of the HB edges, erring toward *more* concurrency),
// so chunking introduces no false negatives within a window span — only
// pairs farther apart than a window are missed, which is the documented
// trade-off of the approach.

// ChunkConfig configures chunked analysis.
type ChunkConfig struct {
	// Base is the per-window HB configuration; Base.MemBudget applies to
	// each window's closure individually.
	Base Config
	// ChunkSize is the window length in records (required, > 0).
	ChunkSize int
	// ChunkOverlap is how many records consecutive windows share;
	// defaults to ChunkSize/4.
	ChunkOverlap int
}

// Chunk is one analyzed window of the trace.
type Chunk struct {
	// Start is the index of the window's first record in the full trace.
	Start int
	// Graph is the window's HB graph; its vertex i corresponds to full
	// trace record Start+i.
	Graph *Graph
}

// WindowCutter cuts a growing record stream into the canonical chunk windows:
// windows of size records, each starting overlap records before its
// predecessor's end. It is the one statement of the window arithmetic —
// ChunkWindows runs it to completion, the streaming analyzer's eager mode
// and the cluster coordinator advance it as records arrive — so every
// topology agrees on the window list by construction.
type WindowCutter struct {
	size, overlap int
	start         int // open window's first record
	end           int // end of the last window cut
	cut           bool
}

// NewWindowCutter returns a cutter for windows of size records; overlap
// defaults to size/4 and is clamped to size-1.
func NewWindowCutter(size, overlap int) *WindowCutter {
	if overlap <= 0 {
		overlap = size / 4
	}
	if overlap >= size {
		overlap = size - 1
	}
	return &WindowCutter{size: size, overlap: overlap}
}

// Start returns the open window's first record: no later window reaches
// behind it, so a streaming caller may release everything before it.
func (c *WindowCutter) Start() int { return c.start }

func (c *WindowCutter) emit(end, next int) [2]int {
	w := [2]int{c.start, end}
	c.start, c.end, c.cut = next, end, true
	return w
}

// Next returns the next window that has filled within the first n records;
// call it until ok is false each time n grows.
func (c *WindowCutter) Next(n int) (w [2]int, ok bool) {
	if c.start+c.size > n {
		return w, false
	}
	end := c.start + c.size
	return c.emit(end, end-c.overlap), true
}

// Finish returns the tail window of an n-record trace: present iff no window
// was cut yet (an empty trace is still one window) or the last one ended
// before n.
func (c *WindowCutter) Finish(n int) (w [2]int, ok bool) {
	if c.cut && c.end >= n {
		return w, false
	}
	return c.emit(n, n), true
}

// ChunkWindows returns the canonical [start, end) window list chunked
// analysis uses for a trace of n records: the WindowCutter run to n.
func ChunkWindows(n, size, overlap int) [][2]int {
	c := NewWindowCutter(size, overlap)
	var windows [][2]int
	for w, ok := c.Next(n); ok; w, ok = c.Next(n) {
		windows = append(windows, w)
	}
	if w, ok := c.Finish(n); ok {
		windows = append(windows, w)
	}
	return windows
}

// BuildChunked builds every window's graph, in window order, and returns them
// all: the reference the window engine (internal/window) is tested against,
// structured differently on purpose — all graphs first, then FindChunked
// scans and merges them — and so alive all at once. Every window must fit
// the per-window memory budget; the first that does not aborts.
func BuildChunked(tr *trace.Trace, cfg ChunkConfig) ([]Chunk, error) {
	if cfg.ChunkSize <= 0 {
		return nil, fmt.Errorf("hb: chunk size must be positive, got %d", cfg.ChunkSize)
	}
	sp := cfg.Base.Obs.Child("hb.build_chunked")
	defer sp.End()
	cfg.Base.Obs = sp // per-window hb.build spans nest under this one
	windows := ChunkWindows(len(tr.Recs), cfg.ChunkSize, cfg.ChunkOverlap)
	sp.Attr("windows", len(windows))
	sp.Count("hb.chunk_windows", int64(len(windows)))

	chunks := make([]Chunk, 0, len(windows))
	for _, w := range windows {
		g, err := Build(tr.Window(w[0], w[1]), cfg.Base)
		if err != nil {
			return nil, fmt.Errorf("hb: chunk [%d,%d): %w", w[0], w[1], err)
		}
		chunks = append(chunks, Chunk{Start: w[0], Graph: g})
	}
	return chunks, nil
}

// ChunkedMemBytes reports the peak per-window closure footprint.
func ChunkedMemBytes(chunks []Chunk) int64 {
	var peak int64
	for _, c := range chunks {
		if m := c.Graph.MemBytes(); m > peak {
			peak = m
		}
	}
	return peak
}
