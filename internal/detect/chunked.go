package detect

import "dcatch/internal/hb"

// FindChunked runs detection over a chunked HB analysis (hb.BuildChunked)
// and merges the per-window candidate maps: the memory-bounded fallback for
// traces whose full reachability closure does not fit (paper §7.2), kept as
// the reference the window engine (internal/window) is tested against.
// Candidate pairs spanning more than one window are missed — the approach's
// documented trade-off — but a pair concurrent within some window is a true
// candidate of the full graph as well.
//
// Every window is scanned, then all are merged in window order (ChunkMerger,
// merge.go): the first window containing a callstack pair provides its
// representative records, Dynamic counts are summed, and the merged pairs are
// rendered in the canonical report order, same as Find.
func FindChunked(chunks []hb.Chunk, opts Options) *Report {
	m := NewChunkMerger(opts)
	scans := make([]WindowScan, len(chunks))
	for i := range chunks {
		fm, tab := findMap(chunks[i].Graph, m.opts)
		scans[i] = WindowScan{fm: fm, tab: tab}
	}
	for i := range chunks {
		m.Merge(scans[i], chunks[i].Start)
	}
	return m.Report()
}
