// Package hb implements the DCatch happens-before model (paper §2) and its
// trace analysis (§3.2): it turns a run trace into a DAG whose edges are the
// MTEP rules. Detection walks that DAG once with a chain-clock sweep
// (ChainClockSweep); the paper's per-vertex reachability index, which makes
// "are these two accesses concurrent?" a constant-time lookup, is built only
// when a caller first asks such a point query.
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
// Config's Disable* switches reproduce the Table 9 rule ablation: dropping a
// rule family both removes its ⇒ edges (false positives appear) and degrades
// Rule-Pnreg to whole-thread Rule-Preg for the affected handler records
// (false negatives appear), exactly as §7.4 describes.
package hb

import (
	"errors"
	"slices"
	"sort"
	"sync"

	"dcatch/internal/bitset"
	"dcatch/internal/obs"
	"dcatch/internal/trace"
	"dcatch/internal/vclock"
)

// ErrOutOfMemory is returned by Build when the admitted reachability
// footprint (MemBytes) would exceed Config.MemBudget — the paper's
// trace-analysis OOM on unselectively traced runs (Table 8). The decision is
// made up front, whether or not the index is ever built.
var ErrOutOfMemory = errors.New("hb: reachability sets exceed memory budget")

// Config controls graph construction.
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

	// MemBudget bounds reachability memory in bytes (0 = unlimited).
	MemBudget int64

	// ReachBackend selects the reachability representation: BackendDense
	// (the default — per-vertex bit arrays, O(V²/8) bytes), BackendChain
	// (per-chain minimum positions, O(V·C·4) bytes), or BackendAuto
	// (dense if it fits MemBudget, else chain). Queries and reports are
	// identical across backends; only memory and the OOM threshold change.
	ReachBackend Backend

	// Parallelism is how many windows the streaming analyzer's chunked
	// replay (internal/stream) keeps in flight ahead of its in-order fold:
	// 0 means runtime.GOMAXPROCS(0), 1 one window at a time. Build itself is
	// single-threaded and ignores it; reports are byte-identical at any
	// setting.
	Parallelism int

	// Obs, when non-nil, is the parent span under which Build records its
	// instrumentation: nested spans per construction phase, closure
	// invocation and Eserial round, plus per-rule edge counters
	// (hb.edges.*). Recording never influences the graph.
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

	// backend is the resolved reachability representation; chains is the
	// trace's chain decomposition when it resolved to chain.
	backend Backend
	chains  *chainSet

	// The reachability index is built by the first point query (ancestor),
	// never by Build: once indexOnce has run, exactly one of reach (dense)
	// and chain is populated.
	indexOnce sync.Once
	reach     []*bitset.Set // dense: reach[v] = vertices that happen before v
	chain     *chainIndex   // chain: per-chain minimum reached positions

	// dec memoizes ChainDecomposition on the dense backend, where no
	// chainSet survives Build; a chainSet is immutable once constructed.
	decOnce sync.Once
	dec     *chainSet

	// PullPairs lists the pull-synchronization pairs discovered while
	// applying Rule-Mpull.
	PullPairs []PullPair

	// Rounds is the number of Rule-Eserial fixed-point iterations.
	Rounds int

	// sp is Build's instrumentation span (nil when observability is off).
	sp *obs.Span
}

// Build constructs the HB graph: the admission check against MemBudget, the
// rule edges, then Rule-Eserial's fixed point. It derives edges only; the
// reachability index behind HappensBefore and the other point queries is
// built on the first such query, so a caller that only sweeps the graph
// (detect.Find) never pays for it.
func Build(tr *trace.Trace, cfg Config) (*Graph, error) {
	g := &Graph{Tr: tr, cfg: cfg}
	n := len(tr.Recs)
	g.in = make([][]int32, n)

	if err := g.resolveBackend(); err != nil {
		return nil, err
	}

	g.sp = cfg.Obs.Child("hb.build")
	g.sp.Attr("vertices", n)
	g.sp.Attr("reach_backend", g.backend.String())

	rules := g.sp.Child("hb.rules")
	g.addRules()
	rules.End()
	g.eserial()
	g.recordBuildMetrics()
	g.sp.End()
	return g, nil
}

// addRules applies every rule but Rule-Eserial and dedups the adjacency
// lists once they are complete.
func (g *Graph) addRules() {
	g.addProgramOrder()
	g.addPairRules()
	g.addPullEdges()
	g.dedupEdges()
}

// recordBuildMetrics emits the whole-graph counters once construction is
// complete. hb.reach.materialized starts at 0; the index builder adds 1 and
// the hb.reach.bits estimate if a point query ever builds the index.
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
		g.sp.Count("hb.reach.chains", int64(g.chains.count()))
	}
	g.sp.Count("hb.reach.materialized", 0)
	g.sp.Count("hb.pull_pairs", int64(len(g.PullPairs)))
}

// reachBits estimates the total number of ordered reachable pairs. Small
// graphs are counted exactly; larger ones are sampled on a fixed vertex
// stride (deterministic) and scaled, keeping the cost of the metric
// bounded regardless of trace size. The dense backend counts ancestor bits;
// the chain backend counts descendants per chain — the same total, sampled
// from the other side.
func (g *Graph) reachBits() int64 {
	if g.chain != nil {
		return g.chain.chainBits(g.N())
	}
	const exactLimit = 4096
	const samples = 1024
	n := len(g.reach)
	if n == 0 {
		return 0
	}
	stride := 1
	if n > exactLimit {
		stride = n / samples
	}
	var bits, counted int64
	for v := 0; v < n; v += stride {
		bits += int64(g.reach[v].Count())
		counted++
	}
	if stride == 1 {
		return bits
	}
	return bits * int64(n) / counted
}

// N returns the vertex count.
func (g *Graph) N() int { return len(g.Tr.Recs) }

// Edges returns the edge count.
func (g *Graph) Edges() int { return g.edgeCount }

// Backend returns the reachability backend Build resolved (auto is resolved
// to the concrete choice).
func (g *Graph) Backend() Backend { return g.backend }

// Chains returns the number of program-order chains the chain backend
// indexes, or 0 under the dense backend.
func (g *Graph) Chains() int {
	if g.chains == nil {
		return 0
	}
	return g.chains.count()
}

// MemBytes returns the reachability index's footprint as admitted against
// MemBudget: exactly the bytes the index holds once built.
func (g *Graph) MemBytes() int64 {
	if g.backend == BackendChain {
		return g.chains.indexBytes(g.N())
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

// ctxKey computes the program-order context of a record, honouring the
// rule-ablation switches: with a family disabled, its handler instances
// collapse into whole-thread order (the Rule-Preg fallback of §7.4).
func (g *Graph) ctxKey(r *trace.Rec) int64 { return g.cfg.CtxKey(r) }

// CtxKey computes the program-order context key of r under the config's
// ablation switches — the chain identity addProgramOrder and the chain
// decomposition use. Exported for the streaming analyzer, whose online
// chain assignment must agree with the graph it later builds.
func (cfg Config) CtxKey(r *trace.Rec) int64 {
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

// dropped reports whether a record's HB role is ignored under the ablation
// config (the record still exists as a vertex and keeps program order).
func (g *Graph) dropped(r *trace.Rec) bool { return g.cfg.Dropped(r) }

// Dropped reports whether r's HB role is ignored under the config's
// ablation switches (the record still exists as a vertex and keeps program
// order). Exported alongside CtxKey for the streaming analyzer's online
// edge derivation.
func (cfg Config) Dropped(r *trace.Rec) bool {
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

// addProgramOrder applies Rule-Preg / Rule-Pnreg.
func (g *Graph) addProgramOrder() {
	last := map[int64]int{}
	var added int64
	for i := range g.Tr.Recs {
		k := g.ctxKey(&g.Tr.Recs[i])
		if p, ok := last[k]; ok {
			if g.addEdge(p, i) {
				added++
			}
		}
		last[k] = i
	}
	g.sp.Count("hb.edges.preg", added)
}

// addPairRules applies the ID-matched rules: Tfork/Tjoin, Eenq, Mrpc, Msoc,
// Mpush.
func (g *Graph) addPairRules() {
	type key struct {
		kind trace.Kind
		op   uint64
	}
	first := map[key]int{}
	for i := range g.Tr.Recs {
		r := &g.Tr.Recs[i]
		if g.dropped(r) {
			continue
		}
		switch r.Kind {
		case trace.KThreadCreate, trace.KThreadEnd, trace.KEventCreate,
			trace.KRPCCreate, trace.KRPCEnd, trace.KSockSend, trace.KZKUpdate:
			if _, dup := first[key{r.Kind, r.Op}]; !dup {
				first[key{r.Kind, r.Op}] = i
			}
		}
	}
	// Per-rule tallies, indexed in lockstep with ruleCounterNames.
	var added [6]int64
	pair := func(i int, srcKind trace.Kind, op uint64, rule int) {
		if s, ok := first[key{srcKind, op}]; ok {
			if g.addEdge(s, i) {
				added[rule]++
			}
		}
	}
	for i := range g.Tr.Recs {
		r := &g.Tr.Recs[i]
		if g.dropped(r) {
			continue
		}
		switch r.Kind {
		case trace.KThreadBegin:
			pair(i, trace.KThreadCreate, r.Op, ruleTfork)
		case trace.KThreadJoin:
			pair(i, trace.KThreadEnd, r.Op, ruleTjoin)
		case trace.KEventBegin:
			pair(i, trace.KEventCreate, r.Op, ruleEenq)
		case trace.KRPCBegin:
			pair(i, trace.KRPCCreate, r.Op, ruleMrpc)
		case trace.KRPCJoin:
			pair(i, trace.KRPCEnd, r.Op, ruleMrpc)
		case trace.KSockRecv:
			pair(i, trace.KSockSend, r.Op, ruleMsoc)
		case trace.KZKPushed:
			pair(i, trace.KZKUpdate, r.Op, ruleMpush)
		}
	}
	for rule, n := range added {
		g.sp.Count(ruleCounterNames[rule], n)
	}
}

// Rule indices and counter names for the ID-matched pair rules.
const (
	ruleTfork = iota
	ruleTjoin
	ruleEenq
	ruleMrpc
	ruleMsoc
	ruleMpush
)

var ruleCounterNames = [...]string{
	ruleTfork: "hb.edges.tfork",
	ruleTjoin: "hb.edges.tjoin",
	ruleEenq:  "hb.edges.eenq",
	ruleMrpc:  "hb.edges.mrpc",
	ruleMsoc:  "hb.edges.msoc",
	ruleMpush: "hb.edges.mpush",
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

// buildIndex is the lazy index builder, run once under indexOnce by the
// first point query: the only caller of closure.
func (g *Graph) buildIndex() {
	g.closure(g.sp)
	if g.sp != nil {
		g.sp.Count("hb.reach.materialized", 1)
		g.sp.Count("hb.reach.bits", g.reachBits())
	}
}

// closure materializes the resolved backend's reachability index over the
// finished graph. addEdge only ever accepts edges with u < v, so trace order
// is a topological order of the DAG and each backend is one pass over it: an
// index entry depends only on already-final neighbor entries. The footprint
// was admitted against MemBudget before any edge was built (resolveBackend).
func (g *Graph) closure(parent *obs.Span) {
	sp := parent.Child("hb.closure")
	defer sp.End()
	sp.Attr("backend", g.backend.String())
	if g.backend == BackendChain {
		g.chainSeq()
		return
	}
	g.closureSeq()
}

// closureSeq is the dense closure: one pass in trace (= topological) order.
func (g *Graph) closureSeq() {
	n := g.N()
	g.reach = make([]*bitset.Set, n)
	var srcs []*bitset.Set
	for v := 0; v < n; v++ {
		s := bitset.New(n)
		srcs = srcs[:0]
		for _, u := range g.in[v] {
			srcs = append(srcs, g.reach[u])
		}
		s.OrAll(srcs)
		for _, u := range g.in[v] {
			s.Add(int(u))
		}
		g.reach[v] = s
	}
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
	before   []*bitset.Set
	ended    []*bitset.Set
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
		s.before = append(s.before, bitset.New(len(evs)*len(evs)))
		s.ended = append(s.ended, bitset.New(len(evs)*len(evs)))
	}
	slices.SortFunc(s.queries, func(a, b serialQuery) int { return a.v - b.v })
	return s
}

// run sweeps the graph and refills every queue's bits.
func (s *serialSweep) run() {
	for q := range s.worklist {
		s.before[q].Clear()
		s.ended[q].Clear()
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
				if reached(e1.end) {
					s.ended[qp.q].Add(i*k + qp.j)
				}
			} else if reached(e1.create) {
				s.before[qp.q].Add(i*k + qp.j)
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
					if sw.before[q].Has(i*k+j) && !sw.ended[q].Has(i*k+j) {
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

// ancestor reports whether u happens before v for callers that guarantee
// 0 <= u < v < N — the single point query both backends answer in O(1),
// building the index on first use.
func (g *Graph) ancestor(u, v int) bool {
	g.indexOnce.Do(g.buildIndex)
	if g.chain != nil {
		return g.chain.reaches(u, v)
	}
	return g.reach[v].HasUnchecked(u)
}

// HappensBefore reports whether record i happens before record j (indices
// into Tr.Recs).
func (g *Graph) HappensBefore(i, j int) bool {
	if i == j || i < 0 || j < 0 || j >= g.N() || i >= g.N() {
		return false
	}
	if i > j {
		return false // causality never flows backwards in trace time
	}
	return g.ancestor(i, j)
}

// Concurrent reports whether neither record happens before the other.
func (g *Graph) Concurrent(i, j int) bool {
	return i != j && !g.HappensBefore(i, j) && !g.HappensBefore(j, i)
}

// CommonAncestors returns up to limit vertices that happen before both i
// and j, nearest first (highest trace index first). For a concurrent pair
// these are the closest points where the two access histories were still
// ordered — the evidence `dcatch -explain` prints alongside "no HB path".
func (g *Graph) CommonAncestors(i, j, limit int) []int {
	n := g.N()
	if limit <= 0 || i < 0 || j < 0 || i >= n || j >= n || i == j {
		return nil
	}
	if i > j {
		i, j = j, i
	}
	var out []int
	for k := i - 1; k >= 0 && len(out) < limit; k-- {
		if g.ancestor(k, i) && g.ancestor(k, j) {
			out = append(out, k)
		}
	}
	return out
}

// ConcurrentOrdered is Concurrent for callers that guarantee 0 <= i < j < N:
// j can never happen before i (causality flows forward in trace time), so
// one unchecked index probe decides the query. The point query of
// internal/detect's all-pairs test oracle, which iterates sorted record
// indices.
func (g *Graph) ConcurrentOrdered(i, j int) bool {
	return !g.ancestor(i, j)
}

// VectorClocks computes a per-vertex vector clock with one dimension per
// program-order context — the representation DCatch rejects as too slow for
// large HB graphs (§3.2.2). Exposed for cross-validation tests and the
// reachability-representation benchmark.
func (g *Graph) VectorClocks() []vclock.Clock {
	n := g.N()
	clocks := make([]vclock.Clock, n)
	dims := map[int64]int{}
	dimOf := func(k int64) int {
		d, ok := dims[k]
		if !ok {
			d = len(dims)
			dims[k] = d
		}
		return d
	}
	for v := 0; v < n; v++ {
		c := vclock.New()
		for _, u := range g.in[v] {
			c.Join(clocks[u])
		}
		c.Tick(dimOf(g.ctxKey(&g.Tr.Recs[v])))
		clocks[v] = c
	}
	return clocks
}

// Path returns the vertex indices of one happens-before chain from i to j
// (inclusive), or nil if i does not happen before j. It walks in-edges
// backwards from j, preferring the chain discovered first; examples use it
// to display causality chains like paper Fig. 3.
func (g *Graph) Path(i, j int) []int {
	if !g.HappensBefore(i, j) {
		return nil
	}
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
			if _, seen := prev[int(u)]; !seen && (int(u) == i || g.HappensBefore(i, int(u))) {
				prev[int(u)] = v
				queue = append(queue, int(u))
			}
		}
	}
	return nil
}
