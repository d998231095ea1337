package hb

import "math"

// Chain-decomposed reachability. Rule-Preg/Pnreg totally orders the records
// of each program-order context (the ctxKey chains), and addProgramOrder
// links every consecutive pair of a chain with an edge. Reaching the element
// at position p of a chain therefore implies reaching every later element of
// that chain, so the full ancestor relation of a vertex v is represented
// exactly by C integers: the minimum position v reaches in each chain.
//
//	v ⇒ w  ⇔  rows[v][chainOf(w)] <= posOf(w)
//
// That is O(V·C·4) bytes instead of the dense closure's O(V²/8) bits, with
// the same O(1) query, and it is exact — not an approximation — for any HB
// graph this package builds, because Preg/Pnreg chain edges are always
// present (rule ablation only merges chains, it never removes their edges).

// chainUnreached marks "v reaches nothing in this chain".
const chainUnreached = math.MaxInt32

// chainSet is the chain decomposition of a trace: every vertex's chain ID
// (ctxKeys numbered in first-appearance order) and position within it.
type chainSet struct {
	chainOf  []int32 // chainOf[v] = chain of vertex v
	posOf    []int32 // posOf[v] = v's position within its chain
	chainLen []int32 // chainLen[c] = number of vertices in chain c
}

// newChainSet decomposes the trace under the graph's ablation config (the
// same ctxKey addProgramOrder uses, so chains and Preg/Pnreg edges agree).
func newChainSet(g *Graph) *chainSet {
	n := g.N()
	cs := &chainSet{chainOf: make([]int32, n), posOf: make([]int32, n)}
	ids := make(map[int64]int32)
	for i := range g.Tr.Recs {
		k := g.ctxKey(&g.Tr.Recs[i])
		id, ok := ids[k]
		if !ok {
			id = int32(len(ids))
			ids[k] = id
			cs.chainLen = append(cs.chainLen, 0)
		}
		cs.chainOf[i] = id
		cs.posOf[i] = cs.chainLen[id]
		cs.chainLen[id]++
	}
	return cs
}

// count returns the number of chains.
func (cs *chainSet) count() int { return len(cs.chainLen) }

// indexBytes is the chain index footprint for n vertices — the n×C int32
// row matrix plus the decomposition arrays — both the admission check's
// prediction and the bytes chainSeq allocates.
func (cs *chainSet) indexBytes(n int) int64 {
	c := int64(cs.count())
	return int64(n)*c*4 + int64(2*n+cs.count())*4
}

// chainIndex is the materialized index: row v holds, per chain, the minimum
// position among the vertices v reaches (strictly after v; chainUnreached if
// none).
type chainIndex struct {
	cs   *chainSet
	c    int     // chain count
	rows []int32 // n*c, row v at [v*c, (v+1)*c)
}

// reaches reports v ⇒ w for 0 <= v < w < n.
func (x *chainIndex) reaches(v, w int) bool {
	return x.rows[v*x.c+int(x.cs.chainOf[w])] <= x.cs.posOf[w]
}

// outCSR builds the forward adjacency (successor lists) in compressed
// sparse-row form from the in-edge lists: dst[offs[v]:offs[v+1]] are v's
// successors. The chain closure propagates over out-edges in reverse trace
// order, the mirror image of the dense closure's in-edge forward pass.
func (g *Graph) outCSR() (offs, dst []int32) {
	n := g.N()
	offs = make([]int32, n+1)
	for v := range g.in {
		for _, u := range g.in[v] {
			offs[u+1]++
		}
	}
	for v := 0; v < n; v++ {
		offs[v+1] += offs[v]
	}
	dst = make([]int32, offs[n])
	fill := make([]int32, n)
	for v := range g.in {
		for _, u := range g.in[v] {
			dst[offs[u]+fill[u]] = int32(v)
			fill[u]++
		}
	}
	return offs, dst
}

// chainSeq is the chain closure: one pass in reverse trace (= reverse
// topological) order. Row v is the elementwise minimum (the meet of this
// semilattice) over all successors' rows, plus each successor's own
// position; every successor of v has a higher trace index, so its row is
// already final when v is processed.
func (g *Graph) chainSeq() {
	cs := g.chains
	c := cs.count()
	rows := make([]int32, g.N()*c)
	offs, dst := g.outCSR()
	for v := g.N() - 1; v >= 0; v-- {
		row := rows[v*c : (v+1)*c]
		for k := range row {
			row[k] = chainUnreached
		}
		for _, w := range dst[offs[v]:offs[v+1]] {
			wrow := rows[int(w)*c : (int(w)+1)*c]
			for k, p := range wrow {
				if p < row[k] {
					row[k] = p
				}
			}
			if cw := cs.chainOf[w]; cs.posOf[w] < row[cw] {
				row[cw] = cs.posOf[w]
			}
		}
	}
	g.chain = &chainIndex{cs: cs, c: c, rows: rows}
}

// chainBits estimates the set-reachability-pair count of the chain index,
// the analog of the dense backend's sampled popcount: the descendants of a
// sampled vertex are, per chain, everything at or after the minimum reached
// position. (Summed over all vertices, ancestor and descendant counts are
// both the number of ordered pairs; only the sampling differs.)
func (x *chainIndex) chainBits(n int) int64 {
	const exactLimit = 4096
	const samples = 1024
	if n == 0 || x.c == 0 {
		return 0
	}
	stride := 1
	if n > exactLimit {
		stride = n / samples
	}
	var bits, counted int64
	for v := 0; v < n; v += stride {
		row := x.rows[v*x.c : (v+1)*x.c]
		for k, p := range row {
			if p != chainUnreached {
				bits += int64(x.cs.chainLen[k] - p)
			}
		}
		counted++
	}
	if stride == 1 {
		return bits
	}
	return bits * int64(n) / counted
}
