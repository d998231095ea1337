// Package hb implements the DCatch happens-before model (paper §2) and its
// trace analysis (§3.2): it turns a run trace into a DAG whose edges are the
// MTEP rules. Detection walks that DAG once with a chain-clock sweep
// (ChainClockSweep). Point queries ("does this access happen before that
// one?", which the paper answers from per-vertex bit arrays) are answered
// from cones instead: every edge points forward in trace order, so the
// ancestors of one record are one backward pass over the in-edges
// (Ancestors), and the graph keeps no index for them.
//
// Rules implemented (paper §2):
//
//	Rule-Mrpc : RPCCreate ⇒ RPCBegin, RPCEnd ⇒ RPCJoin
//	Rule-Msoc : SockSend ⇒ SockRecv
//	Rule-Mpush: ZKUpdate ⇒ ZKPushed (paired by zxid)
//	Rule-Mpull: final status write ⇒ remote poll-loop exit (focused run)
//	Rule-Tfork/Tjoin: ThreadCreate ⇒ ThreadBegin, ThreadEnd ⇒ ThreadJoin
//	Rule-Eenq : EventCreate ⇒ EventBegin
//	Rule-Eserial: on single-consumer queues, End(e1) ⇒ Begin(e2) whenever
//	              Create(e1) ⇒ Create(e2), iterated to a fixed point
//	Rule-Preg/Pnreg: program order within a context (whole thread for
//	              regular threads; one handler instance otherwise)
//
// Rule-Preg/Pnreg and the ID-matched pair rules are derived in one place,
// Deriver: a single forward pass that Build runs over the whole trace and
// the streaming analyzer (internal/stream) runs as records arrive.
//
// Config's Disable* switches reproduce the Table 9 rule ablation: dropping a
// rule family both removes its ⇒ edges (false positives appear) and degrades
// Rule-Pnreg to whole-thread Rule-Preg for the affected handler records
// (false negatives appear), exactly as §7.4 describes.
package hb

import (
	"errors"
	"slices"
	"sort"

	"dcatch/internal/obs"
	"dcatch/internal/trace"
	"dcatch/internal/vclock"
)

// ErrOutOfMemory is returned by Build when the admitted reachability
// footprint (MemBytes) would exceed Config.MemBudget — the paper's
// trace-analysis OOM on unselectively traced runs (Table 8). The decision is
// made up front, from the footprint model alone.
var ErrOutOfMemory = errors.New("hb: reachability sets exceed memory budget")

// Config controls graph construction. The ablation switches act through
// two unexported methods, ctxKey (a record's chain) and dropped (whether its
// pair-rule role is ignored), read only by Deriver and the chain-model
// admission count.
type Config struct {
	// Rule ablation switches (Table 9).
	DisableEvent  bool
	DisableRPC    bool
	DisableSocket bool
	DisablePush   bool

	// LoopReads maps a poll loop's While static ID to the Read static IDs
	// that can feed its exit condition (computed by internal/analysis).
	// Combined with the focused run's KLoopExit and WriterSeq records it
	// yields Rule-Mpull edges and the pull-sync pair list.
	LoopReads map[int32][]int32

	// MemBudget is the admission budget in bytes (0 = unlimited): Build
	// refuses a graph whose MemBytes under ReachBackend's model exceeds it.
	// It charges a reachability structure no code allocates: point queries
	// are cones, built per query in O(V) booleans.
	MemBudget int64

	// ReachBackend selects the footprint model MemBudget admission charges:
	// BackendDense (the default — the paper's bit arrays, V²/8 bytes),
	// BackendChain (a V×C chain index), or BackendAuto (dense if it fits
	// MemBudget, else chain). Queries and reports are identical across
	// backends; only MemBytes and the OOM threshold change.
	ReachBackend Backend

	// Parallelism is how many windows the streaming analyzer's chunked
	// replay (internal/stream) keeps in flight ahead of its in-order fold:
	// 0 means runtime.GOMAXPROCS(0), 1 one window at a time. Build itself is
	// single-threaded and ignores it; reports are byte-identical at any
	// setting.
	Parallelism int

	// Obs, when non-nil, is the parent span under which Build records its
	// instrumentation: nested spans per construction phase and Eserial
	// round, plus per-rule edge counters (hb.edges.*). Recording never
	// influences the graph.
	Obs *obs.Span
}

// PullPair is a (read, write) static pair identified as loop-based custom
// synchronization; detection suppresses such candidates (§3.2.1).
type PullPair struct {
	ReadStatic  int32
	WriteStatic int32
}

// Graph is the happens-before DAG over a trace's records.
type Graph struct {
	Tr  *trace.Trace
	cfg Config

	in        [][]int32 // in[v] = predecessors of v, deduplicated lazily
	edgeCount int

	// backend is the admission model Build resolved.
	backend Backend

	// dec is the trace's chain decomposition, filled by the rules pass and
	// immutable afterwards.
	dec ChainDecomposition

	// PullPairs lists the pull-synchronization pairs discovered while
	// applying Rule-Mpull.
	PullPairs []PullPair

	// Rounds is the number of Rule-Eserial fixed-point iterations.
	Rounds int

	// sp is Build's instrumentation span (nil when observability is off).
	sp *obs.Span
}

// Build constructs the HB graph: the admission check against MemBudget, the
// rule edges, then Rule-Eserial's fixed point. It derives edges only, and
// nothing in the graph changes afterwards.
func Build(tr *trace.Trace, cfg Config) (*Graph, error) {
	g := &Graph{Tr: tr, cfg: cfg}
	if err := g.resolveBackend(); err != nil {
		return nil, err
	}

	g.sp = cfg.Obs.Child("hb.build")
	g.sp.Attr("vertices", g.N())
	g.sp.Attr("reach_backend", g.backend.String())

	rules := g.sp.Child("hb.rules")
	g.addRules()
	rules.End()
	g.eserial()
	g.recordBuildMetrics()
	g.sp.End()
	return g, nil
}

// addRules applies every rule but Rule-Eserial: one Deriver pass adds the
// program-order and pair-rule edges and fills the chain decomposition, then
// Rule-Mpull, and the adjacency lists are deduped once they are complete.
// The per-rule counters tally edges as they are added, before the dedup.
func (g *Graph) addRules() {
	n := g.N()
	g.in = make([][]int32, n)
	g.dec = ChainDecomposition{Of: make([]int32, n), Pos: make([]int32, n)}
	d := NewDeriver(g.cfg)
	var preg int64
	var pair [len(ruleCounterNames)]int64
	for i := range g.Tr.Recs {
		st := d.Next(i, &g.Tr.Recs[i])
		g.dec.Of[i], g.dec.Pos[i] = st.Chain, st.Pos
		if st.Pred >= 0 {
			g.in[i] = append(g.in[i], st.Pred)
			preg++
		}
		if st.Src >= 0 {
			g.in[i] = append(g.in[i], st.Src)
			pair[st.rule]++
		}
	}
	g.dec.Len = d.lens
	g.sp.Count("hb.edges.preg", preg)
	for rule, added := range pair {
		g.sp.Count(ruleCounterNames[rule], added)
	}
	g.addPullEdges()
	g.dedupEdges()
}

// recordBuildMetrics emits the whole-graph counters once construction is
// complete.
func (g *Graph) recordBuildMetrics() {
	if g.sp == nil {
		return
	}
	g.sp.Attr("edges", g.edgeCount)
	g.sp.Attr("eserial_rounds", g.Rounds)
	g.sp.Count("hb.vertices", int64(g.N()))
	g.sp.Count("hb.edges.total", int64(g.edgeCount))
	g.sp.Count("hb.reach.bytes", g.MemBytes())
	// Per-backend footprint counters plus a cross-window peak, so chunked
	// manifests expose both the total and the true high-water mark.
	g.sp.Count("hb.reach.bytes."+g.backend.String(), g.MemBytes())
	g.sp.CountMax("hb.reach.peak_bytes", g.MemBytes())
	if g.backend == BackendChain {
		g.sp.Count("hb.reach.chains", int64(g.Chains()))
	}
	g.sp.Count("hb.pull_pairs", int64(len(g.PullPairs)))
}

// N returns the vertex count.
func (g *Graph) N() int { return len(g.Tr.Recs) }

// Edges returns the edge count.
func (g *Graph) Edges() int { return g.edgeCount }

// Backend returns the admission model Build resolved (auto is resolved to
// the concrete choice).
func (g *Graph) Backend() Backend { return g.backend }

// Chains returns the number of program-order chains the chain model
// charges for, or 0 under the dense model.
func (g *Graph) Chains() int {
	if g.backend != BackendChain {
		return 0
	}
	return g.ChainDecomposition().Chains()
}

// MemBytes returns the reachability footprint admitted against MemBudget:
// DenseReachBytes under the dense model, indexBytes under the chain model.
// Neither structure is allocated; point queries build cones instead.
func (g *Graph) MemBytes() int64 {
	if g.backend == BackendChain {
		return indexBytes(g.N(), g.ChainDecomposition().Chains())
	}
	return DenseReachBytes(g.N())
}

// addEdge appends u as a predecessor of v and reports whether the edge was
// accepted. Duplicates are not filtered here: the construction phase dedups
// all adjacency lists at once with sort+compact (dedupEdges), which avoids a
// per-edge hash-map probe and allocation on the hot path. Rule-Eserial calls
// it only for edges its reachability check has proven new.
func (g *Graph) addEdge(u, v int) bool {
	if u == v || u < 0 || v < 0 {
		return false
	}
	if u > v {
		// All causality in a real run flows forward in trace time; an
		// inverted edge indicates record mismatch — drop it.
		return false
	}
	g.in[v] = append(g.in[v], int32(u))
	return true
}

// dedupEdges sorts and compacts every adjacency list and recomputes the
// edge count. Called once after the construction phase.
func (g *Graph) dedupEdges() {
	count := 0
	for v := range g.in {
		e := g.in[v]
		if len(e) > 1 {
			slices.Sort(e)
			g.in[v] = slices.Compact(e)
		}
		count += len(g.in[v])
	}
	g.edgeCount = count
}

// ctxKey computes the program-order context key of r under the config's
// ablation switches — the chain identity of the chain decomposition: with a
// family disabled, its handler instances collapse into whole-thread order
// (the Rule-Preg fallback of §7.4).
func (cfg Config) ctxKey(r *trace.Rec) int64 {
	degrade := false
	switch r.CtxKind {
	case trace.CtxEvent:
		degrade = cfg.DisableEvent
	case trace.CtxRPC:
		degrade = cfg.DisableRPC
	case trace.CtxMsg:
		degrade = cfg.DisableSocket
	case trace.CtxWatch:
		degrade = cfg.DisablePush
	}
	if degrade {
		return int64(r.Thread)<<32 | 0xffffffff
	}
	return int64(r.Thread)<<32 | int64(uint32(r.Ctx))
}

// dropped reports whether r's HB role is ignored under the config's
// ablation switches (the record still exists as a vertex and keeps program
// order).
func (cfg Config) dropped(r *trace.Rec) bool {
	switch r.Kind {
	case trace.KEventCreate, trace.KEventBegin, trace.KEventEnd:
		return cfg.DisableEvent
	case trace.KRPCCreate, trace.KRPCBegin, trace.KRPCEnd, trace.KRPCJoin:
		return cfg.DisableRPC
	case trace.KSockSend, trace.KSockRecv:
		return cfg.DisableSocket
	case trace.KZKUpdate, trace.KZKPushed:
		return cfg.DisablePush
	}
	return false
}

// addPullEdges applies Rule-Mpull using the focused run's records: for each
// recorded exit of a candidate loop, the last candidate read before it names
// (via WriterSeq) the write w* that provided its value; if w* came from a
// different thread, w* happens before the loop exit (§3.2.1).
func (g *Graph) addPullEdges() {
	if len(g.cfg.LoopReads) == 0 {
		return
	}
	readSets := map[int32]map[int32]bool{}
	for loop, reads := range g.cfg.LoopReads {
		m := map[int32]bool{}
		for _, r := range reads {
			m[r] = true
		}
		readSets[loop] = m
	}
	var mpull int64
	// seqIdx: record sequence number -> index.
	seqIdx := map[uint64]int{}
	for i := range g.Tr.Recs {
		seqIdx[g.Tr.Recs[i].Seq] = i
	}
	for i := range g.Tr.Recs {
		exit := &g.Tr.Recs[i]
		if exit.Kind != trace.KLoopExit {
			continue
		}
		reads, ok := readSets[int32(exit.Op)]
		if !ok {
			continue
		}
		// Find the last candidate read before the exit.
		for j := i - 1; j >= 0; j-- {
			r := &g.Tr.Recs[j]
			if r.Kind != trace.KMemRead || !reads[r.StaticID] || r.WriterSeq == 0 {
				continue
			}
			w, ok := seqIdx[r.WriterSeq]
			if !ok {
				break
			}
			wr := &g.Tr.Recs[w]
			if wr.Thread != r.Thread {
				if g.addEdge(w, i) {
					mpull++
				}
				g.PullPairs = append(g.PullPairs, PullPair{ReadStatic: r.StaticID, WriteStatic: wr.StaticID})
			}
			break
		}
	}
	g.sp.Count("hb.edges.mpull", mpull)
}

// serialEvent is one fully recorded event of a single-consumer queue: the
// records of its creation, handler begin and handler end.
type serialEvent struct{ create, begin, end int }

// eserialWorklist groups the fully recorded events of every single-consumer
// queue into a deterministic worklist: queues by name, events by creation
// order, queues with fewer than two such events dropped.
func (g *Graph) eserialWorklist() [][]serialEvent {
	queues := map[string]map[uint64]*serialEvent{}
	for i := range g.Tr.Recs {
		r := &g.Tr.Recs[i]
		if r.Queue == "" || !g.Tr.SingleConsumer(r.Queue) {
			continue
		}
		q := queues[r.Queue]
		if q == nil {
			q = map[uint64]*serialEvent{}
			queues[r.Queue] = q
		}
		e := q[r.Op]
		if e == nil {
			e = &serialEvent{create: -1, begin: -1, end: -1}
			q[r.Op] = e
		}
		switch r.Kind {
		case trace.KEventCreate:
			e.create = i
		case trace.KEventBegin:
			e.begin = i
		case trace.KEventEnd:
			e.end = i
		}
	}
	names := make([]string, 0, len(queues))
	for name := range queues {
		names = append(names, name)
	}
	sort.Strings(names)
	var worklist [][]serialEvent
	for _, name := range names {
		q := queues[name]
		evs := make([]serialEvent, 0, len(q))
		for _, e := range q {
			if e.create >= 0 && e.begin >= 0 && e.end >= 0 {
				evs = append(evs, *e)
			}
		}
		if len(evs) < 2 {
			continue
		}
		sort.Slice(evs, func(i, j int) bool { return evs[i].create < evs[j].create })
		worklist = append(worklist, evs)
	}
	return worklist
}

// serialQuery is one point of an Eserial sweep at which a queue's bits are
// recorded: the creation (begin = false) or handler begin (begin = true) of
// event j of worklist queue q.
type serialQuery struct {
	v, q, j int
	begin   bool
}

// serialSweep answers one Eserial round's questions with one chain-clock
// sweep of the graph as it stands. The sweep is projected onto the chains of
// the events' Create and End records — the only records a question is ever
// asked about — and records, per queue of k events, the k×k bits
//
//	before[i*k+j] = Create(e_i) ⇒ Create(e_j)   (at Create(e_j)'s visit)
//	ended[i*k+j]  = End(e_i) ⇒ Begin(e_j)       (at Begin(e_j)'s visit)
//
// where u ⇒ v is u < v and v's clock has reached u's position in u's chain.
type serialSweep struct {
	g        *Graph
	worklist [][]serialEvent
	dec      ChainDecomposition
	proj     []int32
	width    int
	queries  []serialQuery // sorted by vertex
	next     int           // queries[next] is the running sweep's next point
	before   [][]bool
	ended    [][]bool
}

func (g *Graph) newSerialSweep(worklist [][]serialEvent) *serialSweep {
	dec := g.ChainDecomposition()
	s := &serialSweep{g: g, worklist: worklist, dec: dec, proj: make([]int32, dec.Chains())}
	for c := range s.proj {
		s.proj[c] = -1
	}
	track := func(u int) {
		if c := dec.Of[u]; s.proj[c] < 0 {
			s.proj[c] = int32(s.width)
			s.width++
		}
	}
	for q, evs := range worklist {
		for j, e := range evs {
			track(e.create)
			track(e.end)
			s.queries = append(s.queries,
				serialQuery{v: e.create, q: q, j: j},
				serialQuery{v: e.begin, q: q, j: j, begin: true})
		}
		s.before = append(s.before, make([]bool, len(evs)*len(evs)))
		s.ended = append(s.ended, make([]bool, len(evs)*len(evs)))
	}
	slices.SortFunc(s.queries, func(a, b serialQuery) int { return a.v - b.v })
	return s
}

// run sweeps the graph and refills every queue's bits.
func (s *serialSweep) run() {
	for q := range s.worklist {
		clear(s.before[q])
		clear(s.ended[q])
	}
	s.next = 0
	s.g.ChainClockSweep(s.dec, s.proj, s.width, s.visit)
}

func (s *serialSweep) visit(v int, clock vclock.ChainClock) {
	reached := func(u int) bool {
		return u < v && clock[s.proj[s.dec.Of[u]]] >= s.dec.Pos[u]
	}
	for ; s.next < len(s.queries) && s.queries[s.next].v == v; s.next++ {
		qp := s.queries[s.next]
		evs := s.worklist[qp.q]
		k := len(evs)
		for i, e1 := range evs {
			if qp.begin {
				s.ended[qp.q][i*k+qp.j] = reached(e1.end)
			} else {
				s.before[qp.q][i*k+qp.j] = reached(e1.create)
			}
		}
	}
}

// eserial applies Rule-Eserial last (paper §3.2.1): repeatedly add
// End(e1) ⇒ Begin(e2) for events of the same single-consumer queue whose
// creations are already ordered, until no more edges appear.
//
// Each round answers every queue's questions against the graph as it stands
// at the round's start, with one serialSweep, and only then adds the edges it
// found; the edge set a round discovers is therefore independent of scan
// order. An edge passing the !ended check cannot already be in the graph
// (every existing edge is an ancestor relation), so accepted edges are
// counted without a dedup probe.
func (g *Graph) eserial() {
	if g.cfg.DisableEvent {
		return
	}
	worklist := g.eserialWorklist()
	var sw *serialSweep
	if len(worklist) > 0 {
		sw = g.newSerialSweep(worklist)
	}
	var eserialTotal int64
	for {
		g.Rounds++
		rsp := g.sp.Child("hb.eserial.round")
		rsp.Attr("round", g.Rounds)
		if sw != nil {
			sw.run()
		}
		added := 0
		for q, evs := range worklist {
			k := len(evs)
			for i, e1 := range evs {
				for j, e2 := range evs {
					if i == j {
						continue
					}
					if sw.before[q][i*k+j] && !sw.ended[q][i*k+j] {
						if g.addEdge(e1.end, e2.begin) {
							added++
						}
					}
				}
			}
		}
		rsp.Attr("edges_added", added)
		rsp.End()
		if added == 0 {
			g.sp.Count("hb.edges.eserial", eserialTotal)
			return
		}
		eserialTotal += int64(added)
		g.edgeCount += added
	}
}

// Ancestors returns the backward cone of vertex v (0 <= v < N): cone[u]
// reports whether u happens before v or is v, for every u <= v (no later
// record can happen before v). Every edge points forward in trace order, so one pass from v
// down to 0 marks the in-edges of each marked vertex. Cones are not
// memoized: the graph keeps no query state, so queries need no lock.
func (g *Graph) Ancestors(v int) []bool { return g.ancestors(v, 0) }

// ancestors is Ancestors exact on [lo, v] only; entries below lo may miss.
func (g *Graph) ancestors(v, lo int) []bool {
	cone := make([]bool, v+1)
	cone[v] = true
	for w := v; w >= lo; w-- {
		if cone[w] {
			for _, u := range g.in[w] {
				cone[u] = true
			}
		}
	}
	return cone
}

// descendants is the forward cone of i over [i, hi]: one pass in trace
// order marks w when any of its in-edges comes from a marked vertex.
func (g *Graph) descendants(i, hi int) []bool {
	cone := make([]bool, hi+1)
	cone[i] = true
	for w := i + 1; w <= hi; w++ {
		cone[w] = slices.ContainsFunc(g.in[w], func(u int32) bool { return cone[u] })
	}
	return cone
}

// HappensBefore reports whether record i happens before record j (indices
// into Tr.Recs): one backward pass from j, stopping at i.
func (g *Graph) HappensBefore(i, j int) bool {
	return 0 <= i && i < j && j < g.N() && g.ancestors(j, i)[i]
}

// CommonAncestors returns up to limit vertices that happen before both i
// and j, nearest first (highest trace index first), from the intersection
// of their backward cones. For a concurrent pair these are the closest
// points where the two access histories were still ordered — the evidence
// `dcatch -explain` prints alongside "no HB path".
func (g *Graph) CommonAncestors(i, j, limit int) []int {
	n := g.N()
	if limit <= 0 || i < 0 || j < 0 || i >= n || j >= n || i == j {
		return nil
	}
	if i > j {
		i, j = j, i
	}
	ci, cj := g.Ancestors(i), g.Ancestors(j)
	var out []int
	for k := i - 1; k >= 0 && len(out) < limit; k-- {
		if ci[k] && cj[k] {
			out = append(out, k)
		}
	}
	return out
}

// Path returns the vertex indices of one happens-before chain from i to j
// (inclusive), or nil if i does not happen before j. It computes i's
// forward cone over [i, j], then walks in-edges backwards from j breadth
// first, through that cone only: the path is a shortest one, ties going to
// the in-edge listed first. Examples use it to display causality chains
// like paper Fig. 3.
func (g *Graph) Path(i, j int) []int {
	if !g.HappensBefore(i, j) {
		return nil
	}
	fwd := g.descendants(i, j)
	// Backward BFS from j until i.
	prev := map[int]int{j: -1}
	queue := []int{j}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v == i {
			var path []int
			for u := i; u != -1; u = prev[u] {
				path = append(path, u)
			}
			return path
		}
		for _, u := range g.in[v] {
			if _, seen := prev[int(u)]; !seen && fwd[u] {
				prev[int(u)] = v
				queue = append(queue, int(u))
			}
		}
	}
	return nil
}
