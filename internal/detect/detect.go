// Package detect enumerates DCbug candidates from an HB graph: every pair
// of memory accesses that touch the same location with at least one write
// and no happens-before order between them (paper §3.2). Candidates are
// deduplicated both by static-instruction pair and by callstack pair, the
// two counting granularities of the paper's Tables 4 and 5.
package detect

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"dcatch/internal/hb"
	"dcatch/internal/ir"
	"dcatch/internal/obs"
	"dcatch/internal/trace"
)

// Pair is one DCbug candidate at callstack-pair granularity. A and B are
// canonically ordered (A.StackKey <= B.StackKey) so a pair has a single
// identity regardless of which access was seen first.
type Pair struct {
	Obj string // memory location (one representative; races are per-object)

	AStatic, BStatic int32
	AStack, BStack   string
	ARec, BRec       int // representative record indices into the trace

	// Dynamic is the number of dynamic record pairs folded into this
	// callstack pair.
	Dynamic int
}

// packStatic packs the unordered static pair (a, b) into a single map key:
// smaller ID in the high word. Replaces the fmt.Sprintf("%d|%d") string
// keys the hot paths used to build on every lookup.
func packStatic(a, b int32) int64 {
	if a > b {
		a, b = b, a
	}
	return int64(uint32(a))<<32 | int64(uint32(b))
}

// unpackStatic is the inverse of packStatic.
func unpackStatic(k int64) (a, b int32) {
	return int32(uint32(k >> 32)), int32(uint32(k))
}

// StaticKey returns the unordered static-instruction pair identity.
func (p *Pair) StaticKey() string {
	a, b := p.AStatic, p.BStatic
	if a > b {
		a, b = b, a
	}
	return fmt.Sprintf("%d|%d", a, b)
}

// CallstackKey is the callstack-pair identity of a Pair, usable as a map
// key. It replaces the old `AStack + "||" + BStack` string keys, which were
// ambiguous whenever a stack string itself contained "||" ("x||y"+"z" and
// "x"+"y||z" collided); a struct key keeps the two sides separate.
type CallstackKey struct {
	AStack, BStack string
}

// CallstackKey returns the pair's callstack identity. A and B are already
// canonically ordered, so equal keys mean equal pairs.
func (p *Pair) CallstackKey() CallstackKey {
	return CallstackKey{p.AStack, p.BStack}
}

// Describe renders the pair with program positions.
func (p *Pair) Describe(prog *ir.Program) string {
	return fmt.Sprintf("%s: %s <-> %s", p.Obj, describeSide(prog, p.AStatic, p.AStack), describeSide(prog, p.BStatic, p.BStack))
}

func describeSide(prog *ir.Program, static int32, stack string) string {
	var st ir.Stmt
	if prog != nil {
		st = prog.Stmt(int(static))
	}
	if st == nil {
		return fmt.Sprintf("stmt#%d", static)
	}
	return fmt.Sprintf("%s (%s)", st.Meta().Pos, st)
}

// Report is the set of candidates found in one trace.
type Report struct {
	Pairs []Pair

	// mu guards the statics cache; read-only queries (StaticCount,
	// HasStaticPair, ...) may be issued from concurrent consumers while the
	// memo is (re)built.
	mu sync.Mutex
	// staticSet caches the packed static-pair identities of Pairs; it is
	// rebuilt whenever len(Pairs) changes (reports only ever grow, via
	// core.DetectMulti-style appends). staticKeys caches the rendered,
	// sorted key strings for the same Pairs length; it is built lazily on
	// the first StaticKeys call so callers that never render keys pay
	// nothing.
	staticSet  map[int64]struct{}
	staticKeys []string
	staticLen  int
}

// staticsLocked rebuilds the packed static-pair set if Pairs grew since the
// memo was taken. Callers hold r.mu.
func (r *Report) staticsLocked() map[int64]struct{} {
	if r.staticSet == nil || r.staticLen != len(r.Pairs) {
		set := make(map[int64]struct{}, len(r.Pairs))
		for i := range r.Pairs {
			set[packStatic(r.Pairs[i].AStatic, r.Pairs[i].BStatic)] = struct{}{}
		}
		r.staticSet = set
		r.staticKeys = nil
		r.staticLen = len(r.Pairs)
	}
	return r.staticSet
}

// statics returns the packed static-pair set, computing it at most once per
// Pairs length. StaticCount, StaticKeys and HasStaticPair used to rebuild
// this set — with string keys — on every call; benchmark loops hit them per
// report pair.
func (r *Report) statics() map[int64]struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.staticsLocked()
}

// StaticCount returns the number of unique static-instruction pairs.
func (r *Report) StaticCount() int { return len(r.statics()) }

// CallstackCount returns the number of unique callstack pairs.
func (r *Report) CallstackCount() int { return len(r.Pairs) }

// StaticKeys returns the sorted unique static pair keys. The slice is
// cached alongside the statics() memo (rendering and sorting used to repeat
// on every call) and must not be mutated by the caller.
func (r *Report) StaticKeys() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	set := r.staticsLocked()
	if r.staticKeys == nil {
		keys := make([]string, 0, len(set))
		for k := range set {
			a, b := unpackStatic(k)
			keys = append(keys, fmt.Sprintf("%d|%d", a, b))
		}
		sort.Strings(keys)
		r.staticKeys = keys
	}
	return r.staticKeys
}

// HasStaticPair reports whether the report contains the unordered static
// pair (a, b).
func (r *Report) HasStaticPair(a, b int32) bool {
	_, ok := r.statics()[packStatic(a, b)]
	return ok
}

// Options tunes detection.
type Options struct {
	// MaxGroup caps the records considered per memory location; locations
	// touched more often are subsampled (keeping first and last accesses
	// per context) to bound the pair enumeration. 0 means the default.
	MaxGroup int

	// SuppressPull removes candidates matching the pull-synchronization
	// pairs the HB analysis discovered (the "LP" stage of Table 5).
	SuppressPull bool

	// Parallelism has no effect; it is kept only because
	// benchmark/served.go sets it.
	Parallelism int

	// Obs, when non-nil, is the parent span for detection spans and
	// counters (detect.*). Recording never influences the report.
	Obs *obs.Span
}

const defaultMaxGroup = 1500

// foundPair accumulates one callstack pair during a scan. firstObj is the
// index (into the sorted object list) of the object that provides the
// pair's representative, and rep packs the representative's dynamic record
// indices in trace order as i<<32|j with i < j: the canonical representative
// of a callstack pair is its minimum (firstObj, rep) occurrence. rep also
// keys the report's canonical sort order (see reportFromMap).
type foundPair struct {
	pair     Pair
	firstObj int
	rep      int64
}

// packRep builds a foundPair.rep sort/min key from a representative record
// pair, i < j in trace order.
func packRep(i, j int) int64 { return int64(i)<<32 | int64(j) }

// pairSlab block-allocates foundPairs. The scans create one per distinct
// callstack pair — hundreds of thousands on large traces — and individual
// heap allocations made garbage collection a measurable share of the
// detect stage.
type pairSlab struct{ buf []foundPair }

// alloc returns a pointer to the next zeroed slot; the caller fills it in
// place, avoiding an extra copy of the ~130-byte struct.
func (s *pairSlab) alloc() *foundPair {
	if len(s.buf) == cap(s.buf) {
		s.buf = make([]foundPair, 0, 2048)
	}
	s.buf = s.buf[:len(s.buf)+1]
	return &s.buf[len(s.buf)-1]
}

// internTable interns the StackKey rendering of every record the scans will
// visit: ids maps a record's trace index to its stack ID, strs maps the ID
// back to the rendering. IDs are assigned in lexicographic rank order, so
// comparing two IDs compares the strings — the dedup key for a candidate
// pair is one packed integer (see packStackIDs) instead of two strings,
// which takes both the fmt.Sprintf rendering and the string hashing out of
// the emit hot path. A StackKey determines its record's static ID (the
// rendering embeds it), so equal-ID pairs are equal callstack pairs in the
// CallstackKey sense.
type internTable struct {
	ids  []int32
	strs []string
}

// buildInternTable renders and ranks the stack of every access of the
// scanned locations: one rendering per access, none per enumerated pair.
func buildInternTable(g *hb.Graph, objs []string, groups map[string][]int) *internTable {
	tab := &internTable{ids: make([]int32, len(g.Tr.Recs))}
	intern := map[string]int32{}
	for _, o := range objs {
		for _, i := range groups[o] {
			s := g.Tr.Recs[i].StackKey()
			id, ok := intern[s]
			if !ok {
				id = int32(len(tab.strs))
				intern[s] = id
				tab.strs = append(tab.strs, s)
			}
			tab.ids[i] = id
		}
	}
	// Remap the encounter-order IDs onto lexicographic ranks.
	order := make([]int32, len(tab.strs))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return tab.strs[order[a]] < tab.strs[order[b]] })
	rank := make([]int32, len(tab.strs))
	sorted := make([]string, len(tab.strs))
	for r, id := range order {
		rank[id] = int32(r)
		sorted[r] = tab.strs[id]
	}
	tab.strs = sorted
	for _, o := range objs {
		for _, i := range groups[o] {
			tab.ids[i] = rank[tab.ids[i]]
		}
	}
	return tab
}

// packStackIDs packs a pair of stack IDs into the canonical (ascending,
// hence ascending-stack-string) dedup key.
func packStackIDs(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// pairFromIDs materializes the canonical Pair for a representative record
// pair (i < j in trace order), ordering the sides by stack rendering — via
// the rank-ordered IDs — exactly as the pre-interning makePair did: by
// (stack, static), where equal stacks imply equal statics and keep the
// sides in trace order.
func pairFromIDs(tab *internTable, obj string, ri, rj *trace.Rec, i, j int, idI, idJ int32) Pair {
	if idI > idJ {
		ri, rj = rj, ri
		i, j = j, i
		idI, idJ = idJ, idI
	}
	return Pair{
		Obj:     obj,
		AStatic: ri.StaticID, BStatic: rj.StaticID,
		AStack: tab.strs[idI], BStack: tab.strs[idJ],
		ARec: i, BRec: j,
	}
}

// Find enumerates concurrent conflicting access pairs.
func Find(g *hb.Graph, opts Options) *Report {
	found, _ := findMap(g, opts)
	return reportFromMap(found, opts.Obs)
}

// findMap runs the chain-clock sweep (epoch.go) and returns the
// callstack-pair dedup map. Find sorts it straight into a Report;
// FindChunked merges the per-window maps first, so windows never materialize
// intermediate reports.
func findMap(g *hb.Graph, opts Options) (map[uint64]*foundPair, *internTable) {
	sp := opts.Obs.Child("detect.find")
	defer sp.End()
	sp.Attr("reach_backend", g.Backend().String())
	maxGroup := opts.MaxGroup
	if maxGroup <= 0 {
		maxGroup = defaultMaxGroup
	}
	// Group memory accesses by location.
	groups := map[string][]int{}
	for i := range g.Tr.Recs {
		r := &g.Tr.Recs[i]
		if r.IsMem() {
			groups[r.Obj] = append(groups[r.Obj], i)
		}
	}
	var pull map[int64]bool
	if opts.SuppressPull {
		pull = map[int64]bool{}
		for _, pp := range g.PullPairs {
			pull[packStatic(pp.ReadStatic, pp.WriteStatic)] = true
		}
	}

	// Sorted list of the locations worth scanning: at least one write and
	// at least two accesses.
	objs := make([]string, 0, len(groups))
	for o, idxs := range groups {
		if len(idxs) < 2 {
			continue
		}
		hasWrite := false
		for _, i := range idxs {
			if g.Tr.Recs[i].IsWrite() {
				hasWrite = true
				break
			}
		}
		if hasWrite {
			objs = append(objs, o)
		}
	}
	sort.Strings(objs)
	tab := buildInternTable(g, objs, groups)

	found := scanEpochAll(g, objs, groups, maxGroup, pull, tab, sp)
	sp.Attr("locations", len(objs))
	sp.Attr("candidates", len(found))
	sp.Count("detect.locations_scanned", int64(len(objs)))
	sp.Count("detect.candidates", int64(len(found)))
	return found, tab
}

// reportFromMap sorts a dedup map into the canonical report order and
// records the dynamic-pair count. The order is ascending rep — the trace
// position of each callstack pair's representative records. That key is
// unique (equal record pairs have equal stacks, hence equal callstack
// keys) and a single integer, so an LSD radix sort orders hundreds of
// thousands of candidates in linear time where a comparison sort on the
// string keys dominated the detect stage's profile.
func reportFromMap[K comparable](found map[K]*foundPair, parent *obs.Span) *Report {
	type repEntry struct {
		rep int64
		fp  *foundPair
	}
	// Keys live beside the pointers so the sort passes never chase them.
	fps := make([]repEntry, 0, len(found))
	var maxRep int64
	for _, fp := range found {
		fps = append(fps, repEntry{fp.rep, fp})
		if fp.rep > maxRep {
			maxRep = fp.rep
		}
	}
	buf := make([]repEntry, len(fps))
	var count [256]int
	for shift := uint(0); maxRep>>shift > 0; shift += 8 {
		clear(count[:])
		for i := range fps {
			count[(fps[i].rep>>shift)&0xff]++
		}
		// A pass whose byte is uniform across all keys (common in the
		// middle of the packed i<<32|j layout) permutes nothing.
		if count[(maxRep>>shift)&0xff] == len(fps) {
			continue
		}
		sum := 0
		for b, c := range count {
			count[b] = sum
			sum += c
		}
		for i := range fps {
			b := (fps[i].rep >> shift) & 0xff
			buf[count[b]] = fps[i]
			count[b]++
		}
		fps, buf = buf, fps
	}
	rep := &Report{Pairs: make([]Pair, 0, len(fps))}
	var dynamic int64
	for i := range fps {
		rep.Pairs = append(rep.Pairs, fps[i].fp.pair)
		dynamic += int64(fps[i].fp.pair.Dynamic)
	}
	parent.Count("detect.dynamic_pairs", dynamic)
	return rep
}

// subsample keeps a bounded, deterministic selection of a hot location's
// accesses: the first and last access of every (thread, ctx) context are
// always kept (a context's boundary accesses are where cross-context races
// live), then padding is added evenly from the remaining accesses until max
// is reached. Only the padding is ever trimmed; if the mandatory boundary
// accesses alone exceed max, all of them are still returned (the result is
// bounded by 2x the context count).
func subsample(tr *trace.Trace, idxs []int, max int) []int {
	type ck struct {
		th  int32
		ctx int32
	}
	firstLast := map[ck][2]int{}
	for _, i := range idxs {
		r := &tr.Recs[i]
		k := ck{r.Thread, r.Ctx}
		fl, ok := firstLast[k]
		if !ok {
			firstLast[k] = [2]int{i, i}
		} else {
			fl[1] = i
			firstLast[k] = fl
		}
	}
	keep := map[int]bool{}
	for _, fl := range firstLast {
		keep[fl[0]] = true
		keep[fl[1]] = true
	}
	if budget := max - len(keep); budget > 0 {
		stride := len(idxs)/budget + 1
		for x := 0; x < len(idxs) && budget > 0; x += stride {
			if !keep[idxs[x]] {
				keep[idxs[x]] = true
				budget--
			}
		}
	}
	out := make([]int, 0, len(keep))
	for _, i := range idxs {
		if keep[i] {
			out = append(out, i)
		}
	}
	return out
}

// Format renders the report for CLI output.
func (r *Report) Format(prog *ir.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d candidate(s) (%d static pairs, %d callstack pairs)\n",
		len(r.Pairs), r.StaticCount(), r.CallstackCount())
	for i := range r.Pairs {
		fmt.Fprintf(&b, "  [%d] %s (x%d)\n", i, r.Pairs[i].Describe(prog), r.Pairs[i].Dynamic)
	}
	return b.String()
}
