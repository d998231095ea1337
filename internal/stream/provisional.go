package stream

import (
	"sort"

	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/trace"
	"dcatch/internal/vclock"
)

// The provisional engine: an online restatement of the batch pipeline's
// chain decomposition, edge derivation, chain-clock sweep and epoch scan,
// run record by record so candidates surface while the trace is still being
// written.
//
// Why it can be online at all (DESIGN.md §13):
//
//   - Chain assignment is first-appearance numbering of ctxKeys — already an
//     online algorithm (hb.Config.CtxKey is the shared key).
//   - Program order needs only the last record per chain, which the
//     resumable sweep's frontier subsumes.
//   - Pair rules look ID-matched sources up in a first-occurrence map. The
//     batch builds that map over the whole trace first, but hb.addEdge
//     rejects u > v, so a source appearing after its target never produces
//     an edge — deriving edges from the map's online prefix yields the
//     exact batch edge set.
//   - The epoch scan only compares an access against already-swept accesses,
//     which is trace order — the order records arrive in.
//
// What cannot be online: Rule-Eserial (a fixed point over the finished
// closure) and Rule-Mpull (absent from trace analysis anyway). The online
// edge set is therefore a subset of the final one, online concurrency a
// superset, and every final candidate the engine's group cap retains appears
// provisionally; Finish retracts the rest. Hot locations are capped at
// MaxGroup tracked accesses (the batch subsampling's budget) so the
// quadratic suffix walk stays bounded; accesses past the cap still compare
// against the tracked ones but are not tracked themselves — a best-effort
// narrowing that only ever delays a candidate to Finish.

// pairKey identifies an ID-matched pair-rule source: (source kind, op).
type pairKey struct {
	kind trace.Kind
	op   uint64
}

// provAcc is one tracked access of a location: everything emission needs, so
// the engine never re-reads the trace buffer (eagerly released elsewhere).
type provAcc struct {
	pos    int32 // position within its chain
	rec    int32 // trace index
	write  bool
	static int32
	thread int32
	ctx    int32
	stack  string // StackKey rendering
}

// provObj tracks one location's accesses grouped by chain, ascending trace
// order per slot — the online form of detect's epochObjState, unprojected.
type provObj struct {
	chainID []int32
	slotOf  map[int32]int32
	lists   [][]provAcc
	total   int
}

type provisional struct {
	a   *Analyzer
	cfg hb.Config

	rs        *hb.ResumableSweep
	chains    map[int64]int32
	chainLen  []int32
	pairSrc   map[pairKey]vclock.ChainClock
	snapBytes int64

	objs     map[string]*provObj
	maxGroup int

	emitted map[detect.CallstackKey]*detect.Pair
	srcs    []vclock.ChainClock // scratch
}

func newProvisional(a *Analyzer) *provisional {
	maxGroup := a.opts.Detect.MaxGroup
	if maxGroup <= 0 {
		maxGroup = 1500 // detect's defaultMaxGroup
	}
	return &provisional{
		a:        a,
		cfg:      a.opts.HB,
		rs:       hb.NewResumableSweep(),
		chains:   map[int64]int32{},
		pairSrc:  map[pairKey]vclock.ChainClock{},
		objs:     map[string]*provObj{},
		maxGroup: maxGroup,
		emitted:  map[detect.CallstackKey]*detect.Pair{},
	}
}

func (p *provisional) frontierBytes() int64 {
	return p.rs.FrontierBytes() + p.snapBytes
}

// add processes record i: chain assignment, online in-edges, sweep advance,
// and the epoch comparison against every tracked prior access of the same
// location.
func (p *provisional) add(i int, r *trace.Rec) {
	k := p.cfg.CtxKey(r)
	c, ok := p.chains[k]
	if !ok {
		c = int32(len(p.chainLen))
		p.chains[k] = c
		p.chainLen = append(p.chainLen, 0)
	}
	pos := p.chainLen[c]
	p.chainLen[c]++

	p.srcs = p.srcs[:0]
	active := !p.cfg.Dropped(r)
	if active {
		var srcKind trace.Kind
		switch r.Kind {
		case trace.KThreadBegin:
			srcKind = trace.KThreadCreate
		case trace.KThreadJoin:
			srcKind = trace.KThreadEnd
		case trace.KEventBegin:
			srcKind = trace.KEventCreate
		case trace.KRPCBegin:
			srcKind = trace.KRPCCreate
		case trace.KRPCJoin:
			srcKind = trace.KRPCEnd
		case trace.KSockRecv:
			srcKind = trace.KSockSend
		case trace.KZKPushed:
			srcKind = trace.KZKUpdate
		default:
			srcKind = r.Kind // sentinel: no source lookup
		}
		if srcKind != r.Kind {
			if snap, ok := p.pairSrc[pairKey{srcKind, r.Op}]; ok {
				p.srcs = append(p.srcs, snap)
			}
		}
	}
	clock := p.rs.Advance(int(c), pos, p.srcs...)

	if active {
		switch r.Kind {
		case trace.KThreadCreate, trace.KThreadEnd, trace.KEventCreate,
			trace.KRPCCreate, trace.KRPCEnd, trace.KSockSend, trace.KZKUpdate:
			key := pairKey{r.Kind, r.Op}
			if _, dup := p.pairSrc[key]; !dup {
				snap := p.rs.Snapshot(int(c))
				p.pairSrc[key] = snap
				p.snapBytes += int64(len(snap)) * 4
			}
		}
	}

	if r.IsMem() {
		p.scanMem(i, r, c, pos, clock)
	}
}

// scanMem compares access i against the tracked prior accesses of its
// location: for every other chain, the concurrent partners are the suffix of
// that chain's list whose positions exceed the access's clock bound — the
// same epoch test detect's batch sweep applies, minus Eserial edges.
func (p *provisional) scanMem(i int, r *trace.Rec, c, pos int32, clock vclock.ChainClock) {
	o := p.objs[r.Obj]
	if o == nil {
		o = &provObj{slotOf: map[int32]int32{}}
		p.objs[r.Obj] = o
	}
	s, ok := o.slotOf[c]
	if !ok {
		s = int32(len(o.lists))
		o.slotOf[c] = s
		o.chainID = append(o.chainID, c)
		o.lists = append(o.lists, nil)
	}
	acc := provAcc{
		pos: pos, rec: int32(i), write: r.IsWrite(),
		static: r.StaticID, thread: r.Thread, ctx: r.Ctx,
		stack: r.StackKey(),
	}
	for s2 := range o.lists {
		if int32(s2) == s {
			continue // own chain is totally ordered with the access
		}
		bound := hb.At(clock, o.chainID[s2])
		list := o.lists[s2]
		for k := len(list) - 1; k >= 0 && list[k].pos > bound; k-- {
			u := list[k]
			if !acc.write && !u.write {
				continue
			}
			if u.thread == acc.thread && u.ctx == acc.ctx {
				continue
			}
			p.emitPair(r.Obj, u, acc)
		}
	}
	if o.total < p.maxGroup {
		o.lists[s] = append(o.lists[s], acc)
		o.total++
	}
}

// emitPair folds one dynamic pair (u before v in trace order) into the
// provisional set, ordering sides by stack rendering like the batch
// pairFromIDs, and emits EventCandidate on a callstack pair's first
// appearance.
func (p *provisional) emitPair(obj string, u, v provAcc) {
	at := int(v.rec) + 1 // v is the arriving record
	if u.stack > v.stack {
		u, v = v, u
	}
	key := detect.CallstackKey{AStack: u.stack, BStack: v.stack}
	if ex, ok := p.emitted[key]; ok {
		ex.Dynamic++
		return
	}
	pair := &detect.Pair{
		Obj:     obj,
		AStatic: u.static, BStatic: v.static,
		AStack: u.stack, BStack: v.stack,
		ARec: int(u.rec), BRec: int(v.rec),
		Dynamic: 1,
	}
	p.emitted[key] = pair
	p.a.emit(Event{Kind: EventCandidate, Records: at, Pair: pair})
}

// retract emits EventRetract for every provisional candidate the final
// report does not confirm — pairs whose concurrency an Eserial edge refuted,
// or that fell to batch subsampling.
func (p *provisional) retract(final *detect.Report) {
	if len(p.emitted) == 0 {
		return
	}
	confirmed := make(map[detect.CallstackKey]struct{}, len(final.Pairs))
	for i := range final.Pairs {
		confirmed[final.Pairs[i].CallstackKey()] = struct{}{}
	}
	var gone []*detect.Pair
	for key, pair := range p.emitted {
		if _, ok := confirmed[key]; !ok {
			gone = append(gone, pair)
		}
	}
	// Deterministic retraction order: by representative records, the same
	// key the canonical report sorts on.
	sort.Slice(gone, func(i, j int) bool {
		if gone[i].ARec != gone[j].ARec {
			return gone[i].ARec < gone[j].ARec
		}
		return gone[i].BRec < gone[j].BRec
	})
	for _, pair := range gone {
		p.a.emit(Event{Kind: EventRetract, Records: p.a.count, Pair: pair})
	}
}
