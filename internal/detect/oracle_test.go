package detect

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/trace"
)

// The quadratic oracle: the original all-pairs scan, kept as the reference
// the chain-clock sweep is compared against. It asks the graph's
// reachability index one ConcurrentOrdered query per conflicting
// cross-context pair of every location, dedups on callstack strings and
// orders with a comparison sort — sharing nothing with the sweep's clocks,
// interned keys, representative rule, radix sort, access prepass or
// subsampler (oracleSubsample is a frozen record-based copy).

// quadraticReport scans g the quadratic way. It also returns how many
// locations were subsampled and how many accesses that dropped, for
// comparison with detect.subsampled_locations and
// detect.subsampled_accesses_dropped.
func quadraticReport(g *hb.Graph, opts Options) (rep *Report, subsampled, dropped int64) {
	maxGroup := opts.MaxGroup
	if maxGroup <= 0 {
		maxGroup = defaultMaxGroup
	}
	recs := g.Tr.Recs
	groups := map[string][]int{}
	writes := map[string]bool{}
	for i := range recs {
		if r := &recs[i]; r.IsMem() {
			groups[r.Obj] = append(groups[r.Obj], i)
			writes[r.Obj] = writes[r.Obj] || r.IsWrite()
		}
	}
	var objs []string
	for o, idxs := range groups {
		if len(idxs) >= 2 && writes[o] {
			objs = append(objs, o)
		}
	}
	sort.Strings(objs)
	pull := map[int64]bool{}
	if opts.SuppressPull {
		for _, pp := range g.PullPairs {
			pull[packStatic(pp.ReadStatic, pp.WriteStatic)] = true
		}
	}
	stacks := make([]string, len(recs))
	for _, o := range objs {
		for _, i := range groups[o] {
			stacks[i] = recs[i].StackKey()
		}
	}
	found := map[CallstackKey]*Pair{}
	// Objects in sorted order, pairs in ascending (i, j): the first
	// occurrence of a callstack pair is its canonical representative.
	for _, o := range objs {
		idxs := groups[o]
		if len(idxs) > maxGroup {
			kept := oracleSubsample(g.Tr, idxs, maxGroup)
			subsampled++
			dropped += int64(len(idxs) - len(kept))
			idxs = kept
		}
		scanObjectQuadratic(g, o, idxs, stacks, pull, found)
	}
	return sortedReport(found), subsampled, dropped
}

// oracleSubsample is the record-based subsampling the prepass replaced,
// frozen as the reference: the first and last access of every (thread, ctx)
// context, read off the records, then padding at an even stride over the
// location's list positions until max is reached.
func oracleSubsample(tr *trace.Trace, idxs []int, max int) []int {
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

// scanObjectQuadratic runs the all-pairs scan over one location's access
// records (ascending trace indices).
func scanObjectQuadratic(g *hb.Graph, obj string, idxs []int, stacks []string, pull map[int64]bool, found map[CallstackKey]*Pair) {
	recs := g.Tr.Recs
	for x, i := range idxs {
		ri := &recs[i]
		for _, j := range idxs[x+1:] {
			rj := &recs[j]
			if !ri.IsWrite() && !rj.IsWrite() {
				continue
			}
			// Same program-order context: ordered by Pnreg/Preg.
			if ri.Thread == rj.Thread && ri.Ctx == rj.Ctx {
				continue
			}
			if !g.ConcurrentOrdered(i, j) || pull[packStatic(ri.StaticID, rj.StaticID)] {
				continue
			}
			p := Pair{Obj: obj, AStatic: ri.StaticID, BStatic: rj.StaticID,
				AStack: stacks[i], BStack: stacks[j], ARec: i, BRec: j, Dynamic: 1}
			if p.AStack > p.BStack {
				p.AStatic, p.BStatic = p.BStatic, p.AStatic
				p.AStack, p.BStack = p.BStack, p.AStack
				p.ARec, p.BRec = p.BRec, p.ARec
			}
			if ex := found[p.CallstackKey()]; ex != nil {
				ex.Dynamic++
			} else {
				found[p.CallstackKey()] = &p
			}
		}
	}
}

// quadraticChunkedReport is the oracle for FindChunked: quadratic per window,
// merged in window order — the first window holding a callstack pair gives its
// representative (rebased onto the full trace), Dynamic counts add up.
func quadraticChunkedReport(chunks []hb.Chunk, opts Options) *Report {
	merged := map[CallstackKey]*Pair{}
	for _, c := range chunks {
		rep, _, _ := quadraticReport(c.Graph, opts)
		for i := range rep.Pairs {
			p := rep.Pairs[i]
			if ex := merged[p.CallstackKey()]; ex != nil {
				ex.Dynamic += p.Dynamic
				continue
			}
			p.ARec += c.Start
			p.BRec += c.Start
			merged[p.CallstackKey()] = &p
		}
	}
	return sortedReport(merged)
}

// sortedReport renders a dedup map in the canonical report order: ascending
// trace position of the representative record pair.
func sortedReport(found map[CallstackKey]*Pair) *Report {
	rep := &Report{}
	for _, p := range found {
		rep.Pairs = append(rep.Pairs, *p)
	}
	pos := func(p *Pair) (int, int) { return min(p.ARec, p.BRec), max(p.ARec, p.BRec) }
	sort.Slice(rep.Pairs, func(a, b int) bool {
		ai, aj := pos(&rep.Pairs[a])
		bi, bj := pos(&rep.Pairs[b])
		return ai < bi || (ai == bi && aj < bj)
	})
	return rep
}

// diffReports fails the test at the first pair where got and want differ in
// any field: identity, representative records, object or Dynamic count.
func diffReports(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: %d pairs, oracle has %d", label, len(got.Pairs), len(want.Pairs))
	}
	for i := range want.Pairs {
		if got.Pairs[i] != want.Pairs[i] {
			t.Fatalf("%s: pair %d diverged from the quadratic oracle\n got %+v\nwant %+v", label, i, got.Pairs[i], want.Pairs[i])
		}
	}
}

// runFind runs Find and returns the report plus the run's detect counters.
func runFind(g *hb.Graph, opts Options) (*Report, map[string]int64) {
	rec := obs.New()
	sp := rec.Span("test.detect")
	opts.Obs = sp
	rep := Find(g, opts)
	sp.End()
	return rep, rec.Counters()
}

// randomDetectTrace generates a random but causally well-formed trace that
// exercises every HB rule family: threads with fork/join-style causal
// pairs, RPC and socket handler contexts, zk watch pushes, and
// single-consumer event queues, interleaved with reads and writes on a
// small shared object pool so the scan has plenty of conflicting
// cross-context pairs to find.
func randomDetectTrace(rng *rand.Rand, n int) *trace.Trace {
	c := trace.NewCollector("rand")
	c.SetQueueInfo("n/q0", 1)
	c.SetQueueInfo("n/q1", 1)
	queues := []string{"n/q0", "n/q1"}

	type pending struct {
		kind trace.Kind
		op   uint64
	}
	var open []pending
	evPending := make([][]uint64, len(queues))
	evRunning := make([]uint64, len(queues))
	evCtx := make([]int32, len(queues))
	nextOp := uint64(1)
	nextCtx := int32(2000)
	nthreads := 3 + rng.Intn(3)

	for i := 0; i < n; i++ {
		th := int32(1 + rng.Intn(nthreads))
		r := trace.Rec{
			Node: "n", Thread: th, Ctx: th, CtxKind: trace.CtxRegular,
			StaticID: int32(rng.Intn(24)),
			Stack:    []int32{int32(rng.Intn(4)), int32(rng.Intn(3))},
		}
		switch rng.Intn(10) {
		case 0, 1, 2:
			r.Kind = trace.KMemWrite
			r.Obj = fmt.Sprintf("n/o%d", rng.Intn(5))
		case 3, 4, 5:
			r.Kind = trace.KMemRead
			r.Obj = fmt.Sprintf("n/o%d", rng.Intn(5))
		case 6: // open a causal pair
			src := []trace.Kind{trace.KThreadCreate, trace.KRPCCreate, trace.KSockSend, trace.KZKUpdate}[rng.Intn(4)]
			r.Kind = src
			r.Op = nextOp
			open = append(open, pending{src, nextOp})
			nextOp++
		case 7: // close a pending pair, handler kinds in a fresh context
			if len(open) == 0 {
				r.Kind = trace.KMemWrite
				r.Obj = "n/oz"
				break
			}
			k := rng.Intn(len(open))
			p := open[k]
			open = append(open[:k], open[k+1:]...)
			r.Op = p.op
			switch p.kind {
			case trace.KThreadCreate:
				r.Kind = trace.KThreadBegin
			case trace.KRPCCreate:
				r.Kind = trace.KRPCBegin
				r.Ctx, r.CtxKind = nextCtx, trace.CtxRPC
				nextCtx++
			case trace.KSockSend:
				r.Kind = trace.KSockRecv
				r.Ctx, r.CtxKind = nextCtx, trace.CtxMsg
				nextCtx++
			case trace.KZKUpdate:
				r.Kind = trace.KZKPushed
				r.Ctx, r.CtxKind = nextCtx, trace.CtxWatch
				nextCtx++
			}
		default: // event-queue activity
			q := rng.Intn(len(queues))
			switch {
			case evRunning[q] != 0:
				r.Thread = int32(10 + q)
				r.Ctx, r.CtxKind = evCtx[q], trace.CtxEvent
				r.Kind = trace.KEventEnd
				r.Op = evRunning[q]
				r.Queue = queues[q]
				evRunning[q] = 0
			case len(evPending[q]) > 0:
				op := evPending[q][0]
				evPending[q] = evPending[q][1:]
				r.Thread = int32(10 + q)
				r.Ctx, r.CtxKind = nextCtx, trace.CtxEvent
				r.Kind = trace.KEventBegin
				r.Op = op
				r.Queue = queues[q]
				evRunning[q] = op
				evCtx[q] = nextCtx
				nextCtx++
			default:
				r.Kind = trace.KEventCreate
				r.Op = nextOp
				r.Queue = queues[q]
				evPending[q] = append(evPending[q], nextOp)
				nextOp++
			}
		}
		c.Emit(r)
	}
	return c.Trace()
}

// handlerHeavyTrace is shaped like the ledger's handlers-100k workload, scaled
// to a unit test: four worker threads open RPC / socket / watch pairs and
// every close runs in a fresh one-off handler context, so the chain count
// grows with the handler count (well past 4096 for handlers = 4200) on a
// trace of only a few thousand records. A third of the handlers touch the
// shared objects from inside their context, so the sweep's clock projection
// spans thousands of chains too; the workers' own accesses before an open
// are ordered with that handler's, everything else races. Every 64th handler
// also raises a flag its opener polls for (pollLoopReads), so Rule-Mpull
// edges — the one rule whose source is itself a memory access, sitting
// exactly on the sweep's clock bound — are covered as well.
func handlerHeavyTrace(rng *rand.Rand, handlers int) *trace.Trace {
	c := trace.NewCollector("handlers")
	access := func(r trace.Rec) {
		r.Kind = trace.KMemRead
		if rng.Intn(2) == 0 {
			r.Kind = trace.KMemWrite
		}
		r.Obj = fmt.Sprintf("n/o%d", rng.Intn(6))
		r.StaticID = int32(rng.Intn(24))
		r.Stack = []int32{int32(rng.Intn(4))}
		c.Emit(r)
	}
	kinds := []struct {
		open, shut trace.Kind
		ctx        trace.CtxKind
	}{
		{trace.KRPCCreate, trace.KRPCBegin, trace.CtxRPC},
		{trace.KSockSend, trace.KSockRecv, trace.CtxMsg},
		{trace.KZKUpdate, trace.KZKPushed, trace.CtxWatch},
	}
	for h := 0; h < handlers; h++ {
		th := int32(1 + rng.Intn(4))
		worker := trace.Rec{Node: "n", Thread: th, Ctx: th, CtxKind: trace.CtxRegular}
		if rng.Intn(4) == 0 {
			access(worker)
		}
		k := kinds[rng.Intn(len(kinds))]
		op := uint64(h + 1)
		open := worker
		open.Kind, open.Op, open.StaticID = k.open, op, 100
		c.Emit(open)
		handler := trace.Rec{Node: "n", Thread: int32(10 + rng.Intn(3)), Ctx: int32(5000 + h), CtxKind: k.ctx}
		shut := handler
		shut.Kind, shut.Op, shut.StaticID = k.shut, op, 101
		c.Emit(shut)
		if rng.Intn(3) == 0 {
			access(handler)
		}
		if h%64 == 0 {
			flag := func(r trace.Rec, kind trace.Kind, static int32, writer uint64) uint64 {
				r.Kind, r.Obj, r.Stack, r.StaticID, r.WriterSeq = kind, "n/flag", []int32{0}, static, writer
				return c.Emit(r)
			}
			raised := flag(handler, trace.KMemWrite, 200, 0)
			flag(worker, trace.KMemRead, 201, raised)
			exit := worker
			exit.Kind, exit.Op, exit.StaticID = trace.KLoopExit, 300, 300
			c.Emit(exit)
			flag(worker, trace.KMemWrite, 202, 0)
		}
	}
	return c.Trace()
}

// hotLocationTrace puts one location, n/hot, past the default MaxGroup cap
// of 1500 accesses. Four worker threads hit it from their regular contexts;
// about one step in twenty opens an RPC whose one-off handler context, run
// on one of two shared handler threads, touches it exactly once — contexts
// with a single access (first = last), distinct contexts on one thread, and
// enough of them (about a hundred) that a cap of 20 is below two per context. Cold
// records between the accesses keep trace indices and list positions apart.
func hotLocationTrace(rng *rand.Rand) *trace.Trace {
	c := trace.NewCollector("hot")
	hot := func(th, ctx int32, kind trace.CtxKind) {
		r := trace.Rec{Node: "n", Thread: th, Ctx: ctx, CtxKind: kind, Kind: trace.KMemRead, Obj: "n/hot",
			StaticID: int32(rng.Intn(12)), Stack: []int32{int32(rng.Intn(3))}}
		if rng.Intn(3) == 0 {
			r.Kind = trace.KMemWrite
		}
		c.Emit(r)
	}
	op := uint64(1)
	for k := 0; k < 1700; k++ {
		th := int32(1 + rng.Intn(4))
		switch rng.Intn(20) {
		case 0:
			c.Emit(trace.Rec{Node: "n", Thread: th, Ctx: th, CtxKind: trace.CtxRegular, Kind: trace.KRPCCreate, Op: op, StaticID: 100})
			hth, ctx := int32(10+rng.Intn(2)), int32(5000+op)
			c.Emit(trace.Rec{Node: "n", Thread: hth, Ctx: ctx, CtxKind: trace.CtxRPC, Kind: trace.KRPCBegin, Op: op, StaticID: 101})
			hot(hth, ctx, trace.CtxRPC)
			op++
		case 1:
			c.Emit(trace.Rec{Node: "n", Thread: th, Ctx: th, CtxKind: trace.CtxRegular, Kind: trace.KMemWrite, Obj: "n/cold", StaticID: 50})
		default:
			hot(th, th, trace.CtxRegular)
		}
	}
	return c.Trace()
}

// pollLoopReads is the hb.Config.LoopReads of handlerHeavyTrace's poll loops.
var pollLoopReads = map[int32][]int32{300: {201}}
