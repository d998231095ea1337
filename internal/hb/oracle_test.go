package hb

import (
	"math/rand"
	"testing"
)

// Test oracles for the chain-clock index: the two reachability
// representations DCatch §3.2.2 weighs against each other, each computed
// straight from the graph's in-edges and independent of the sweep.

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

// checkIndex asserts the graph's point queries agree with both oracles on
// every ordered pair.
func checkIndex(t *testing.T, label string, g *Graph) {
	t.Helper()
	bits, clocks := newBitReach(g), vectorClocks(g)
	n := g.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			want := bits.hb(i, j)
			if vc := clocks[i].lessEq(clocks[j]); vc != want {
				t.Fatalf("%s: oracles disagree on (%d,%d): bit arrays %v, vector clocks %v", label, i, j, want, vc)
			}
			if got := g.HappensBefore(i, j); got != want {
				t.Fatalf("%s: HappensBefore(%d,%d) = %v, oracle %v", label, i, j, got, want)
			}
			if g.HappensBefore(j, i) {
				t.Fatalf("%s: HappensBefore(%d,%d) against trace order", label, j, i)
			}
			if g.Concurrent(i, j) == want || g.ConcurrentOrdered(i, j) == want {
				t.Fatalf("%s: Concurrent/ConcurrentOrdered(%d,%d) disagree with oracle %v", label, i, j, want)
			}
		}
	}
}

// The §3.2.2 comparison: one build plus the same spread of pair queries,
// answered from the paper's bit arrays, from naive vector clocks, and from
// this package's chain-clock index.
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

// BenchmarkReachabilityChainClocks measures the product's index: one
// chain-clock sweep filling a V×C matrix, built on the first query.
func BenchmarkReachabilityChainClocks(b *testing.B) {
	benchmarkReachability(b, func(g *Graph) func(x, y int) bool { return g.ConcurrentOrdered })
}
