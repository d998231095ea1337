package stream

import (
	"sort"

	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/trace"
	"dcatch/internal/vclock"
)

// The provisional engine: the batch pipeline's edge derivation, chain-clock
// sweep and epoch scan run record by record, so candidates surface while the
// trace is still being written. Edges come from hb.Deriver — the same pass
// hb.Build runs, exact online (see its doc) — and feed a resumable sweep:
// program order is subsumed by the sweep's per-chain frontier, and a
// pair-rule target absorbs the clock its source snapshotted on arrival. The
// epoch scan only compares an access against already-swept accesses, which
// is trace order — the order records arrive in.
//
// What cannot be online: Rule-Eserial (a fixed point over the finished
// closure) and Rule-Mpull (absent from trace analysis anyway). The online
// edge set is therefore a subset of the final one, online concurrency a
// superset, and every final candidate the engine's group cap retains appears
// provisionally; Finish retracts the rest. Hot locations are capped at
// MaxGroup tracked accesses (the batch subsampling's budget) so the
// quadratic suffix walk stays bounded; accesses past the cap still compare
// against the tracked ones but are not tracked themselves — a best-effort
// narrowing that only ever delays a candidate to Finish (DESIGN.md §13).

// provAcc is one tracked access of a location: everything emission needs, so
// the engine never re-reads the trace buffer (eagerly released elsewhere).
type provAcc struct {
	pos    int32 // position within its chain
	rec    int32 // trace index
	write  bool
	static int32
	thread int32
	ctx    int32
	stack  int32 // id in provisional.stacks
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
	a *Analyzer

	d         *hb.Deriver
	rs        *hb.ResumableSweep
	srcClock  map[int32]vclock.ChainClock // first pair sources' clocks, by record
	snapBytes int64

	objs     map[string]*provObj
	maxGroup int

	// stacks interns each access's callstack identity; emitted is keyed on
	// the packed pair of ids, smaller id in the high word.
	stacks  trace.StackIDs
	emitted map[uint64]*detect.Pair
}

func newProvisional(a *Analyzer) *provisional {
	return &provisional{
		a:        a,
		d:        hb.NewDeriver(a.opts.HB),
		rs:       hb.NewResumableSweep(),
		srcClock: map[int32]vclock.ChainClock{},
		objs:     map[string]*provObj{},
		maxGroup: a.opts.Detect.GroupCap(),
		emitted:  map[uint64]*detect.Pair{},
	}
}

func (p *provisional) frontierBytes() int64 {
	return p.rs.FrontierBytes() + p.snapBytes
}

// add processes record i: its derived step advances the sweep, a first
// pair-rule source snapshots its clock for the targets to come, and an
// access is compared against every tracked prior access of its location.
func (p *provisional) add(i int, r *trace.Rec) {
	st := p.d.Next(i, r)
	var clock vclock.ChainClock
	if st.Src >= 0 {
		clock = p.rs.Advance(int(st.Chain), st.Pos, p.srcClock[st.Src])
	} else {
		clock = p.rs.Advance(int(st.Chain), st.Pos)
	}
	if st.FirstSource {
		snap := p.rs.Snapshot(int(st.Chain))
		p.srcClock[int32(i)] = snap
		p.snapBytes += int64(len(snap)) * 4
	}
	if r.IsMem() {
		p.scanMem(i, r, st.Chain, st.Pos, clock)
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
		stack: p.stacks.ID(r),
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
// provisional set and emits EventCandidate on a callstack pair's first
// appearance, its sides ordered by stack rendering like the batch
// pairFromIDs (equal stacks keep trace order).
func (p *provisional) emitPair(obj string, u, v provAcc) {
	at := int(v.rec) + 1 // v is the arriving record
	lo, hi := min(u.stack, v.stack), max(u.stack, v.stack)
	key := uint64(uint32(lo))<<32 | uint64(uint32(hi))
	if ex, ok := p.emitted[key]; ok {
		ex.Dynamic++
		return
	}
	as, bs := p.stacks.Key(u.stack), p.stacks.Key(v.stack)
	if as > bs {
		u, v = v, u
		as, bs = bs, as
	}
	pair := &detect.Pair{
		Obj:     obj,
		AStatic: u.static, BStatic: v.static,
		AStack: as, BStack: bs,
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
	for _, pair := range p.emitted {
		if _, ok := confirmed[pair.CallstackKey()]; !ok {
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
