package detect

import (
	"math"
	"sort"

	"dcatch/internal/trace"
)

// The access prepass: one trace-order walk over the records gives every
// memory access what detection needs — its location, a dense (thread, ctx)
// context id, its write bit and its interned stack — so that after it
// neither subsampling nor the sweep's same-context filter loads a trace.Rec
// per access. Only an emitted pair's representative (pairFromIDs) and the
// pull check still read records.

// writeBit marks a write in access.rec's sign bit.
const writeBit int32 = math.MinInt32

// access is one memory access as the prepass records it, in 8 bytes: its
// trace index with the write bit in the sign bit, and its context id.
type access struct {
	rec int32
	ctx int32
}

// index returns the access's trace index.
func (a access) index() int { return int(a.rec &^ writeBit) }

// accessIndex is the prepass's result: the locations worth scanning — at
// least two accesses, at least one of them a write — in sorted order, each
// with its accesses in trace order.
type accessIndex struct {
	objs  []string
	lists [][]access
}

// indexAccesses runs the prepass over recs. Every memory access is interned
// by binary stack key (trace.StackIDs): one map probe per access, one
// rendering per distinct stack. The distinct keys are then ranked by their
// renderings, and the scanned accesses' ids renumbered onto the ranks
// through the access lists; accesses of locations the scan skips keep
// first-seen ids, which no later step reads.
func indexAccesses(recs []trace.Rec) (accessIndex, *internTable) {
	type location struct {
		accs  []access
		write bool
	}
	locOf := map[string]int32{}
	var locs []location
	ctxOf := map[uint64]int32{}
	lastKey, lastCtx := uint64(0), int32(-1)
	var stacks trace.StackIDs
	ids := make([]int32, len(recs))
	for i := range recs {
		r := &recs[i]
		if !r.IsMem() {
			continue
		}
		li, ok := locOf[r.Obj]
		if !ok {
			li = int32(len(locs))
			locOf[r.Obj] = li
			locs = append(locs, location{})
		}
		// Runs of accesses from one context are common; the last id
		// spares them the map probe.
		if key := uint64(uint32(r.Thread))<<32 | uint64(uint32(r.Ctx)); lastCtx < 0 || key != lastKey {
			c, ok := ctxOf[key]
			if !ok {
				c = int32(len(ctxOf))
				ctxOf[key] = c
			}
			lastKey, lastCtx = key, c
		}
		a := access{rec: int32(i), ctx: lastCtx}
		if r.IsWrite() {
			a.rec |= writeBit
			locs[li].write = true
		}
		locs[li].accs = append(locs[li].accs, a)
		ids[i] = stacks.ID(r)
	}

	var ax accessIndex
	for o, li := range locOf {
		if l := &locs[li]; len(l.accs) >= 2 && l.write {
			ax.objs = append(ax.objs, o)
		}
	}
	sort.Strings(ax.objs)
	ax.lists = make([][]access, len(ax.objs))
	for k, o := range ax.objs {
		ax.lists[k] = locs[locOf[o]].accs
	}

	order := make([]int32, stacks.Len())
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return stacks.Key(order[a]) < stacks.Key(order[b]) })
	rank := make([]int32, len(order))
	tab := &internTable{ids: ids, strs: make([]string, len(order))}
	for r, id := range order {
		rank[id] = int32(r)
		tab.strs[r] = stacks.Key(id)
	}
	for _, accs := range ax.lists {
		for _, a := range accs {
			i := a.index()
			ids[i] = rank[ids[i]]
		}
	}
	return ax, tab
}

// subsampler keeps a bounded, deterministic selection of a hot location's
// accesses: the first and last access of every context are always kept (a
// context's boundary accesses are where cross-context races live), then
// padding is added evenly, by position in the location's list, from the
// remaining accesses until max is reached. Only the padding is ever
// trimmed; if the mandatory boundary accesses alone exceed max, all of them
// are still returned (the result is bounded by 2x the context count). The
// scratch is reused across locations; the zero value is ready to use.
type subsampler struct {
	seen []int32 // per context id: the last walk that met it
	walk int32
	keep []bool // per position in the current list
	out  []access
}

// pick returns the kept accesses of accs in list order. The result is
// scratch, valid until the next call.
func (s *subsampler) pick(accs []access, max int) []access {
	if cap(s.keep) < len(accs) {
		s.keep = make([]bool, len(accs))
	}
	keep := s.keep[:len(accs)]
	clear(keep)
	kept := 0
	// A context's first access is the first the forward walk meets, its
	// last the first the backward walk meets.
	s.walk++
	for x, a := range accs {
		if int(a.ctx) >= len(s.seen) {
			s.seen = append(s.seen, make([]int32, int(a.ctx)+1-len(s.seen))...)
		}
		if s.seen[a.ctx] != s.walk {
			s.seen[a.ctx] = s.walk
			keep[x] = true
			kept++
		}
	}
	s.walk++
	for x := len(accs) - 1; x >= 0; x-- {
		if c := accs[x].ctx; s.seen[c] != s.walk {
			s.seen[c] = s.walk
			if !keep[x] {
				keep[x] = true
				kept++
			}
		}
	}
	if budget := max - kept; budget > 0 {
		stride := len(accs)/budget + 1
		for x := 0; x < len(accs) && budget > 0; x += stride {
			if !keep[x] {
				keep[x] = true
				budget--
			}
		}
	}
	s.out = s.out[:0]
	for x, a := range accs {
		if keep[x] {
			s.out = append(s.out, a)
		}
	}
	return s.out
}
