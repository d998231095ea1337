package detect

import (
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/trace"
	"dcatch/internal/vclock"
)

// The chain-clock sweep (DESIGN.md §8) — the one scan behind Find. It walks
// the whole trace once in trace order behind hb.Graph.ChainClockSweep,
// carrying a chain clock projected onto the chains that hold candidate
// accesses, and keeps per memory location the already-swept accesses grouped
// by chain. When the sweep reaches an access v, a prior access u of the same
// location is concurrent with v exactly when v's clock does not dominate u's
// epoch — clock[chain(u)] < pos(u), one integer compare — so each prior
// chain's concurrent suffix falls out of walking its access list backwards
// until the clock bound is met. Detection is O(n·C) end to end and never
// queries the reachability index (Kini et al., PAPERS.md). Windowed analysis
// shards it by window; within one graph it is a single pass.

// epochAcc is one already-swept access of a location within one chain: its
// prepass access (trace index, write bit, context id) and its chain position.
type epochAcc struct {
	access
	pos int32 // chain position (compared against the sweep clock)
}

// epochObjState tracks one scanned location during the sweep: its accesses
// grouped by decomposition chain, split into the swept prefix (lists[s][:
// passed[s]]) and the not-yet-reached rest.
type epochObjState struct {
	chainID []int32      // clock column (projected chain) per slot
	lists   [][]epochAcc // accesses per slot, ascending trace order
	passed  []int32      // swept prefix length per slot
}

// scanEpochAll folds every location's candidate pairs into one dedup map in
// one chain-clock sweep: per location (subsampled past maxGroup), every
// conflicting pair from different (thread, ctx) contexts that neither clock
// orders and pull suppression does not match.
func scanEpochAll(g *hb.Graph, ax accessIndex, maxGroup int, pull map[int64]bool, tab *internTable, sp *obs.Span) map[uint64]*foundPair {
	found := map[uint64]*foundPair{}
	objs := ax.objs
	n := g.N()
	if n == 0 || len(objs) == 0 {
		return found
	}
	slab := &pairSlab{}
	dec := g.ChainDecomposition()

	// accObj/accSlot route a swept vertex to its location state. accObj
	// stores the object index plus one so the zero value of a fresh array
	// means "not a scanned access" — no clearing pass.
	accObj := make([]int32, n)
	accSlot := make([]int32, n)
	states := make([]epochObjState, len(objs))
	// proj projects the sweep's clocks onto the chains that hold scanned
	// accesses: on handler-heavy traces most chains carry none (RPC/event
	// begin-end contexts), and every clock operation in the sweep scales
	// with the projection width, not the chain count.
	proj := make([]int32, dec.Chains())
	for i := range proj {
		proj[i] = -1
	}
	width := int32(0)
	slotOf := map[int32]int32{}
	var sub subsampler
	var subsampled, dropped int64
	for oi, accs := range ax.lists {
		if len(accs) > maxGroup {
			kept := sub.pick(accs, maxGroup)
			subsampled++
			dropped += int64(len(accs) - len(kept))
			accs = kept
		}
		st := &states[oi]
		clear(slotOf)
		for _, a := range accs {
			i := a.index()
			c := dec.Of[i]
			s, ok := slotOf[c]
			if !ok {
				s = int32(len(st.lists))
				slotOf[c] = s
				if proj[c] < 0 {
					proj[c] = width
					width++
				}
				st.chainID = append(st.chainID, proj[c])
				st.lists = append(st.lists, nil)
			}
			st.lists[s] = append(st.lists[s], epochAcc{access: a, pos: dec.Pos[i]})
			accObj[i] = int32(oi) + 1
			accSlot[i] = s
		}
		st.passed = make([]int32, len(st.lists))
	}
	if subsampled > 0 {
		sp.Count("detect.subsampled_locations", subsampled)
		sp.Count("detect.subsampled_accesses_dropped", dropped)
	}

	stats := g.ChainClockSweep(dec, proj, int(width), func(v int, clock vclock.ChainClock) {
		oi := accObj[v] - 1
		if oi < 0 {
			return
		}
		st := &states[oi]
		sv := accSlot[v]
		va := st.lists[sv][st.passed[sv]].access
		obj := objs[oi]
		for s := range st.lists {
			if int32(s) == sv {
				// v's own chain is totally ordered with it; under an
				// ablation a same-(thread, ctx) pair can land in another
				// chain instead, so that skip stays in the pair filter.
				continue
			}
			// The swept prefix of chain s is ascending in position, and v
			// dominates exactly the prefix at or below its clock bound, so
			// the concurrent partners are a suffix.
			bound := clock[st.chainID[s]]
			prior := st.lists[s][:st.passed[s]]
			for k := len(prior) - 1; k >= 0 && prior[k].pos > bound; k-- {
				u := prior[k].access
				// Both sign bits clear: read-read. Equal ids: one context.
				if u.rec|va.rec >= 0 || u.ctx == va.ctx {
					continue
				}
				emitEpoch(tab, g.Tr.Recs, obj, u.index(), v, int(oi), pull, found, slab)
			}
		}
		st.passed[sv]++
	})
	sp.Count("detect.epoch.joins", stats.Joins)
	sp.Count("detect.epoch.fastpath_hits", stats.FastpathHits)
	sp.CountMax("detect.epoch.clock_bytes_peak", stats.ClockBytesPeak)
	return found
}

// emitEpoch folds one dynamic pair (i < j in trace order) into found: the
// first occurrence of a callstack key creates the entry, later ones bump
// Dynamic — the overwhelmingly common path, a packed-ID map probe and a
// counter. The sweep interleaves locations in trace order, so a key's
// representative must converge to the minimum (object index, record pair) —
// the occurrence an object-by-object all-pairs walk meets first — regardless
// of arrival order.
func emitEpoch(tab *internTable, recs []trace.Rec, obj string, i, j int, objIdx int, pull map[int64]bool, found map[uint64]*foundPair, slab *pairSlab) {
	if pull != nil && pull[packStatic(recs[i].StaticID, recs[j].StaticID)] {
		return
	}
	idI, idJ := tab.ids[i], tab.ids[j]
	key := packStackIDs(idI, idJ)
	ex, ok := found[key]
	if !ok {
		fp := slab.alloc()
		fp.pair = pairFromIDs(tab, obj, &recs[i], &recs[j], i, j, idI, idJ)
		fp.pair.Dynamic = 1
		fp.firstObj = objIdx
		fp.rep = packRep(i, j)
		found[key] = fp
		return
	}
	ex.pair.Dynamic++
	if rep := packRep(i, j); objIdx < ex.firstObj || (objIdx == ex.firstObj && rep < ex.rep) {
		dyn := ex.pair.Dynamic
		ex.pair = pairFromIDs(tab, obj, &recs[i], &recs[j], i, j, idI, idJ)
		ex.pair.Dynamic = dyn
		ex.firstObj = objIdx
		ex.rep = rep
	}
}
