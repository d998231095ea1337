package hb

import (
	"fmt"

	"dcatch/internal/trace"
)

// Backend selects the reachability representation the closure materializes.
//
// The dense backend is the paper's §3.2.2 design: one bit array per vertex,
// O(V²/8) bytes total. The chain backend exploits Rule-Preg/Pnreg: every
// program-order context is a totally ordered chain, so "which vertices do I
// reach?" collapses to "what is the earliest position I reach in each
// chain?" — O(V·C·4) bytes for C chains, with the same O(1) query.
type Backend uint8

const (
	// BackendDense is the per-vertex bit-array closure (the default; the
	// zero value keeps every existing Config working unchanged, including
	// the Table 8 OOM behavior under MemBudget).
	BackendDense Backend = iota
	// BackendChain is the chain-decomposed int32 index.
	BackendChain
	// BackendAuto picks dense when its predicted footprint fits MemBudget
	// (or no budget is set), falling back to chain, and reports
	// ErrOutOfMemory only when neither representation fits.
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

// DenseReachBytes predicts the dense backend's reachability footprint for an
// n-vertex graph: n bit arrays of n bits each, rounded up to whole words.
// Exposed so benchmarks can report the dense cost even where the backend
// refuses to run under its budget.
func DenseReachBytes(n int) int64 {
	words := int64((n + 63) / 64)
	return words * 8 * int64(n)
}

// FullBuildExceedsBudget reports whether an unchunked Build over tr with
// cfg would be refused by the up-front admission check — i.e. whether a
// pipeline with chunking enabled will take the windowed path. It runs the
// same resolveBackend logic Build runs before constructing any edges
// (O(1) for dense, one O(n) chain-assignment pass otherwise), so callers
// that need to know the window shape in advance — the serve layer keys
// whole-report cache entries on it — get exactly Build's decision.
func FullBuildExceedsBudget(tr *trace.Trace, cfg Config) bool {
	g := &Graph{Tr: tr, cfg: cfg}
	return g.resolveBackend() != nil
}

// resolveBackend fixes the backend the closure will use and performs the
// up-front MemBudget admission check, before any edge construction. Dense
// keeps its historical error message (tests compare it verbatim); chain and auto report their own footprint breakdown,
// all wrapping ErrOutOfMemory.
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
		g.chains = newChainSet(g)
		if need := g.chains.indexBytes(n); budget > 0 && need > budget {
			return fmt.Errorf("%w: chain index needs %d bytes (%d vertices x %d chains), budget %d",
				ErrOutOfMemory, need, n, g.chains.count(), budget)
		}
	case BackendAuto:
		if budget <= 0 || dense <= budget {
			g.backend = BackendDense
			return nil
		}
		g.chains = newChainSet(g)
		need := g.chains.indexBytes(n)
		if need > budget {
			return fmt.Errorf("%w: auto backend: dense needs %d bytes, chain needs %d bytes (%d chains), budget %d",
				ErrOutOfMemory, dense, need, g.chains.count(), budget)
		}
		g.backend = BackendChain
	default:
		return fmt.Errorf("hb: unknown reach backend %d", g.cfg.ReachBackend)
	}
	return nil
}
