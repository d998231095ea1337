package hb

import (
	"fmt"

	"dcatch/internal/trace"
)

// Backend selects the reachability footprint model the up-front MemBudget
// admission check charges. It does not pick an implementation, and neither
// model is allocated: point queries are cones (Graph.Ancestors), built per
// query.
//
// The dense model is the paper's §3.2.2 design, one bit array per vertex,
// V²/8 bytes in total; it keeps the Table 8 OOM rows where the paper has
// them. The chain model charges a V×C int32 chain-clock matrix plus the
// chain decomposition, which exceeds V²/8 whenever C > V/32.
type Backend uint8

const (
	// BackendDense charges the paper's per-vertex bit arrays (the default;
	// the zero value keeps the Table 8 OOM behavior under MemBudget).
	BackendDense Backend = iota
	// BackendChain charges a V×C chain-clock matrix.
	BackendChain
	// BackendAuto picks dense when its footprint fits MemBudget (or no
	// budget is set), falling back to chain, and reports ErrOutOfMemory
	// only when neither fits.
	BackendAuto
)

// String renders the backend name as accepted by ParseBackend.
func (b Backend) String() string {
	switch b {
	case BackendDense:
		return "dense"
	case BackendChain:
		return "chain"
	case BackendAuto:
		return "auto"
	}
	return fmt.Sprintf("backend(%d)", uint8(b))
}

// ParseBackend parses a -reach flag value.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "dense":
		return BackendDense, nil
	case "chain":
		return BackendChain, nil
	case "auto":
		return BackendAuto, nil
	}
	return BackendDense, fmt.Errorf("hb: unknown reach backend %q (want dense, chain or auto)", s)
}

// DenseReachBytes is the dense model's footprint for an n-vertex graph: n
// bit arrays of n bits each, rounded up to whole words. Exposed so
// benchmarks can report the paper's cost even where admission refuses it.
func DenseReachBytes(n int) int64 {
	words := int64((n + 63) / 64)
	return words * 8 * int64(n)
}

// FullBuildExceedsBudget reports whether an unchunked Build over tr with
// cfg would be refused by the up-front admission check — whether a pipeline
// with chunking enabled will window (core.TraceJob.WindowSize). It runs
// Build's own resolveBackend (O(1) for dense, one O(n) chain count
// otherwise), so it is exactly Build's decision.
func FullBuildExceedsBudget(tr *trace.Trace, cfg Config) bool {
	g := &Graph{Tr: tr, cfg: cfg}
	return g.resolveBackend() != nil
}

// indexBytes is the chain model's footprint for n vertices over c chains:
// an n×c int32 clock matrix plus the decomposition's Of, Pos and Len arrays.
func indexBytes(n, c int) int64 {
	return int64(n)*int64(c)*4 + int64(2*n+c)*4
}

// resolveBackend fixes the admission model and performs the up-front
// MemBudget check, before any edge construction. Dense keeps its
// historical error message (tests compare it verbatim); chain and auto
// report their own footprint breakdown, all wrapping ErrOutOfMemory.
func (g *Graph) resolveBackend() error {
	n := g.N()
	budget := g.cfg.MemBudget
	dense := DenseReachBytes(n)
	switch g.cfg.ReachBackend {
	case BackendDense:
		g.backend = BackendDense
		if budget > 0 && dense > budget {
			return fmt.Errorf("%w: need %d bytes for %d vertices, budget %d",
				ErrOutOfMemory, dense, n, budget)
		}
	case BackendChain:
		g.backend = BackendChain
		c := chainCount(g.Tr, g.cfg)
		if need := indexBytes(n, c); budget > 0 && need > budget {
			return fmt.Errorf("%w: chain index needs %d bytes (%d vertices x %d chains), budget %d",
				ErrOutOfMemory, need, n, c, budget)
		}
	case BackendAuto:
		if budget <= 0 || dense <= budget {
			g.backend = BackendDense
			return nil
		}
		c := chainCount(g.Tr, g.cfg)
		need := indexBytes(n, c)
		if need > budget {
			return fmt.Errorf("%w: auto backend: dense needs %d bytes, chain needs %d bytes (%d chains), budget %d",
				ErrOutOfMemory, dense, need, c, budget)
		}
		g.backend = BackendChain
	default:
		return fmt.Errorf("hb: unknown reach backend %d", g.cfg.ReachBackend)
	}
	return nil
}
