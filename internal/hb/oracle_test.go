package hb

import (
	"math/rand"
	"testing"

	"dcatch/internal/vclock"
)

// Test oracles for the point queries (cones): the two reachability
// representations DCatch §3.2.2 weighs against each other, each computed
// straight from the graph's in-edges and independent of the sweep, plus a
// chain-clock index filled by one ChainClockSweep.

// bitReach is the paper's representation: one bit array per vertex holding
// the vertices that happen before it, filled in one pass in trace
// (= topological) order, since every edge points forward.
type bitReach struct {
	words int
	bits  []uint64 // row v at [v*words, (v+1)*words)
}

func newBitReach(g *Graph) *bitReach {
	n := g.N()
	w := (n + 63) / 64
	r := &bitReach{words: w, bits: make([]uint64, n*w)}
	for v := 0; v < n; v++ {
		row := r.bits[v*w : (v+1)*w]
		for _, u := range g.in[v] {
			for k, x := range r.bits[int(u)*w : (int(u)+1)*w] {
				row[k] |= x
			}
			row[u/64] |= 1 << (u % 64)
		}
	}
	return r
}

// hb reports u ⇒ v.
func (r *bitReach) hb(u, v int) bool {
	return u < v && r.bits[v*r.words+u/64]&(1<<(u%64)) != 0
}

// vectorClock is the representation the paper rejects as too slow: a
// sparse clock with one dimension per program-order context.
type vectorClock map[int]uint32

func (c vectorClock) join(o vectorClock) {
	for d, x := range o {
		if x > c[d] {
			c[d] = x
		}
	}
}

func (c vectorClock) lessEq(o vectorClock) bool {
	for d, x := range c {
		if x > o[d] {
			return false
		}
	}
	return true
}

func (c vectorClock) concurrent(o vectorClock) bool { return !c.lessEq(o) && !o.lessEq(c) }

// vectorClocks computes every vertex's clock naively: join over every
// in-edge, then tick the vertex's own context.
func vectorClocks(g *Graph) []vectorClock {
	clocks := make([]vectorClock, g.N())
	dims := map[int64]int{}
	for v := range clocks {
		c := vectorClock{}
		for _, u := range g.in[v] {
			c.join(clocks[u])
		}
		k := g.cfg.ctxKey(&g.Tr.Recs[v])
		d, ok := dims[k]
		if !ok {
			d = len(dims)
			dims[k] = d
		}
		c[d]++
		clocks[v] = c
	}
	return clocks
}

// chainIndex is a V×C chain-clock matrix: row v is vertex v's clock from
// one full-width ChainClockSweep, so u ⇒ v iff v's clock has reached u's
// position in u's chain. It is the all-pairs oracle detect's tests build
// the same way (detect/oracle_test.go).
type chainIndex struct {
	dec ChainDecomposition
	clk []int32 // clk[v*C+c] = vertex v's clock entry for chain c
}

func newChainIndex(g *Graph) *chainIndex {
	dec := g.ChainDecomposition()
	c := dec.Chains()
	ix := &chainIndex{dec: dec, clk: make([]int32, g.N()*c)}
	g.ChainClockSweep(dec, nil, 0, func(v int, clock vclock.ChainClock) {
		copy(ix.clk[v*c:(v+1)*c], clock)
	})
	return ix
}

// reaches reports u ⇒ v for 0 <= u < v < N.
func (ix *chainIndex) reaches(u, v int) bool {
	return ix.clk[v*ix.dec.Chains()+int(ix.dec.Of[u])] >= ix.dec.Pos[u]
}

// concurrentOrdered is Concurrent for 0 <= i < j < N: j can never happen
// before i, so one index probe decides the query.
func (ix *chainIndex) concurrentOrdered(i, j int) bool { return !ix.reaches(i, j) }

// checkQueries asserts the graph's cones and point queries agree with the
// bit arrays, vector clocks and the chain-clock index on every ordered
// pair.
func checkQueries(t *testing.T, label string, g *Graph) {
	t.Helper()
	bits, clocks, ix := newBitReach(g), vectorClocks(g), newChainIndex(g)
	n := g.N()
	for j := 0; j < n; j++ {
		cone := g.Ancestors(j)
		if len(cone) != j+1 || !cone[j] {
			t.Fatalf("%s: Ancestors(%d) has %d entries, self %v", label, j, len(cone), len(cone) > j && cone[j])
		}
		for i := 0; i < j; i++ {
			want := bits.hb(i, j)
			if vc := clocks[i].lessEq(clocks[j]); vc != want {
				t.Fatalf("%s: oracles disagree on (%d,%d): bit arrays %v, vector clocks %v", label, i, j, want, vc)
			}
			if got := ix.reaches(i, j); got != want {
				t.Fatalf("%s: chain index (%d,%d) = %v, bit arrays %v", label, i, j, got, want)
			}
			if cone[i] != want {
				t.Fatalf("%s: Ancestors(%d)[%d] = %v, oracle %v", label, j, i, cone[i], want)
			}
			if got := g.HappensBefore(i, j); got != want {
				t.Fatalf("%s: HappensBefore(%d,%d) = %v, oracle %v", label, i, j, got, want)
			}
			if g.HappensBefore(j, i) {
				t.Fatalf("%s: HappensBefore(%d,%d) against trace order", label, j, i)
			}
			if g.Concurrent(i, j) == want || ix.concurrentOrdered(i, j) == want {
				t.Fatalf("%s: Concurrent/concurrentOrdered(%d,%d) disagree with oracle %v", label, i, j, want)
			}
		}
	}
	for i := 0; i < n; i++ {
		fwd := g.descendants(i, n-1)
		for j := i + 1; j < n; j++ {
			if fwd[j] != bits.hb(i, j) {
				t.Fatalf("%s: descendants(%d)[%d] = %v, oracle %v", label, i, j, fwd[j], bits.hb(i, j))
			}
		}
	}
}

// The §3.2.2 comparison: one build plus the same spread of pair queries,
// answered from the paper's bit arrays, from naive vector clocks, from a
// chain-clock index, and from the product's cones.
//
//	go test -run '^$' -bench Reachability ./internal/hb

// benchmarkReachability runs the query load on a random full-MTEP trace of
// 2000 records, rebuilding the graph every iteration so each representation
// pays its own construction.
func benchmarkReachability(b *testing.B, concurrent func(g *Graph) func(x, y int) bool) {
	tr := randomMTEP(rand.New(rand.NewSource(1)), 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := Build(tr, Config{})
		if err != nil {
			b.Fatal(err)
		}
		query := concurrent(g)
		n := g.N()
		for x := 0; x < n; x += 7 {
			for y := x + 1; y < n; y += 97 {
				query(x, y)
			}
		}
	}
}

// BenchmarkReachabilityBitset measures DCatch's representation: per-vertex
// bit arrays with constant-time queries.
func BenchmarkReachabilityBitset(b *testing.B) {
	benchmarkReachability(b, func(g *Graph) func(x, y int) bool {
		r := newBitReach(g)
		return func(x, y int) bool { return !r.hb(x, y) }
	})
}

// BenchmarkReachabilityVectorClocks measures the alternative the paper
// rejects: naive vector clocks, one dimension per handler/RPC instance.
func BenchmarkReachabilityVectorClocks(b *testing.B) {
	benchmarkReachability(b, func(g *Graph) func(x, y int) bool {
		clocks := vectorClocks(g)
		return func(x, y int) bool { return clocks[x].concurrent(clocks[y]) }
	})
}

// BenchmarkReachabilityChainClocks measures a chain-clock index: one sweep
// filling a V×C matrix, then one probe per query.
func BenchmarkReachabilityChainClocks(b *testing.B) {
	benchmarkReachability(b, func(g *Graph) func(x, y int) bool {
		return newChainIndex(g).concurrentOrdered
	})
}

// BenchmarkReachabilityCones measures the product's point queries: no
// index, one backward cone per query.
func BenchmarkReachabilityCones(b *testing.B) {
	benchmarkReachability(b, func(g *Graph) func(x, y int) bool { return g.Concurrent })
}
