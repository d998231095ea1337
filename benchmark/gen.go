package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"

	"dcatch/internal/trace"
)

// The input generators are frozen copies of internal/bench's SyntheticTrace,
// SyntheticTraceBounded and MutateTraceSpan (folded into one parametrized
// generator that draws from the RNG in the same order), so deleting or
// editing internal/bench cannot change a workload. traceDigest pins what
// they produce at seed 1.

// shape selects which of the two synthetic trace families synth generates.
type shape struct {
	program string
	// statics and sites bound the StaticID and call-site ranges: the report
	// size grows with their product.
	statics, sites int
	// handlerBudget > 0 selects the bounded family: cross-node closes land on
	// the receiver's worker loop and at most this many event-handler
	// instances get a fresh context, so the chain count is constant in n.
	// 0 selects the handler-heavy family: a fresh context per RPC, message,
	// watch and event handler, so chains grow linearly with n.
	handlerBudget int
}

var (
	boundedShape = shape{program: "synthetic-bounded", statics: 24, sites: 8, handlerBudget: 192}
	handlerShape = shape{program: "synthetic", statics: 200, sites: 40}
)

// synth generates a deterministic, causally consistent trace of n records:
// a 4-node cluster whose worker threads issue memory accesses over per-node
// object pools, open and close cross-node causal pairs (fork, RPC, socket,
// ZooKeeper push) and feed single-consumer event queues whose handlers
// exercise Rule-Eserial. Every pair closes forward in trace time.
func synth(n int, seed int64, sh shape) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	c := trace.NewCollector(sh.program)
	bounded := sh.handlerBudget > 0

	const nodes = 4
	const threadsPerNode = 4 // thread 0 of each node is the event consumer
	const objsPerNode = 48
	nodeName := func(nd int) string { return fmt.Sprintf("n%d", nd) }
	queueName := func(nd int) string { return fmt.Sprintf("n%d/q", nd) }
	threadID := func(nd, t int) int32 { return int32(nd*threadsPerNode + t + 1) }
	for nd := 0; nd < nodes; nd++ {
		c.SetQueueInfo(queueName(nd), 1)
	}

	type pend struct {
		kind trace.Kind
		op   uint64
	}
	var open []pend
	evPending := make([][]uint64, nodes) // created, not yet handled events
	evRunning := make([]uint64, nodes)   // op of the in-flight handler, 0 = idle
	evCtx := make([]int32, nodes)
	evCreated := 0
	nextOp := uint64(1)
	nextCtx := int32(10_000)

	for i := 0; i < n; i++ {
		nd := rng.Intn(nodes)
		t := 1 + rng.Intn(threadsPerNode-1)
		r := trace.Rec{
			Node: nodeName(nd), Thread: threadID(nd, t), Ctx: threadID(nd, t),
			CtxKind:  trace.CtxRegular,
			StaticID: int32(rng.Intn(sh.statics)),
			Stack:    []int32{int32(rng.Intn(sh.sites))},
		}
		obj := func() string { return fmt.Sprintf("n%d/o%d", nd, rng.Intn(objsPerNode)) }
		freshCtx := func(kind trace.CtxKind) {
			r.Ctx = nextCtx
			r.CtxKind = kind
			nextCtx++
		}
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			r.Kind = trace.KMemRead
			r.Obj = obj()
		case 4, 5, 6:
			r.Kind = trace.KMemWrite
			r.Obj = obj()
		case 7: // open a causal pair
			r.Kind = []trace.Kind{trace.KThreadCreate, trace.KRPCCreate, trace.KSockSend, trace.KZKUpdate}[rng.Intn(4)]
			r.Op = nextOp
			open = append(open, pend{r.Kind, nextOp})
			nextOp++
		case 8: // close a pending causal pair, possibly on another node
			if len(open) == 0 {
				r.Kind = trace.KMemRead
				r.Obj = obj()
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
				if !bounded {
					freshCtx(trace.CtxRPC)
				}
			case trace.KSockSend:
				r.Kind = trace.KSockRecv
				if !bounded {
					freshCtx(trace.CtxMsg)
				}
			case trace.KZKUpdate:
				r.Kind = trace.KZKPushed
				if !bounded {
					freshCtx(trace.CtxWatch)
				}
			}
		default: // event-queue activity on this node's single consumer
			switch {
			case evRunning[nd] != 0: // finish the in-flight handler
				r.Thread = threadID(nd, 0)
				r.Ctx = evCtx[nd]
				r.CtxKind = trace.CtxEvent
				r.Kind = trace.KEventEnd
				r.Op = evRunning[nd]
				r.Queue = queueName(nd)
				evRunning[nd] = 0
			case len(evPending[nd]) > 0: // begin the oldest pending event
				op := evPending[nd][0]
				evPending[nd] = evPending[nd][1:]
				r.Thread = threadID(nd, 0)
				evCtx[nd] = nextCtx
				freshCtx(trace.CtxEvent)
				r.Kind = trace.KEventBegin
				r.Op = op
				r.Queue = queueName(nd)
				evRunning[nd] = op
			case !bounded || evCreated < sh.handlerBudget: // enqueue a new event
				r.Kind = trace.KEventCreate
				r.Op = nextOp
				r.Queue = queueName(nd)
				evPending[nd] = append(evPending[nd], nextOp)
				evCreated++
				nextOp++
			default:
				r.Kind = trace.KMemWrite
				r.Obj = obj()
			}
		}
		c.Emit(r)
	}
	return c.Trace()
}

// mutationSpans is how many distinct 1 % spans mutateSpan cycles through
// before reusing a position (with a different rebase, so still a new input).
const mutationSpans = 28

// mutateSpan returns a copy of tr in which the memory accesses of one
// contiguous 1 % span have their StaticIDs rebased by 2^20 + j — the trace a
// rerun after a localized code edit produces: most windows byte-identical,
// the edited region's windows changed. Span j starts at n/4 + (j mod 28)·n/40.
func mutateSpan(tr *trace.Trace, j int) *trace.Trace {
	cp := *tr
	cp.Recs = append([]trace.Rec(nil), tr.Recs...)
	n := len(cp.Recs)
	start := n/4 + (j%mutationSpans)*(n/40)
	count := max(n/100, 1)
	for i := start; i < min(start+count, n); i++ {
		if cp.Recs[i].IsMem() {
			cp.Recs[i].StaticID += 1<<20 + int32(j)
		}
	}
	return &cp
}

// traceDigest hashes every field the analysis can observe, record by record,
// with the benchmark's own encoding: it must not share code with
// trace.Encode or scancache's key, or a bug there would move the input and
// its digest together.
func traceDigest(tr *trace.Trace) string {
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	num := func(v uint64) { buf = binary.AppendUvarint(buf, v) }
	str := func(s string) {
		num(uint64(len(s)))
		buf = append(buf, s...)
	}
	str(tr.Program)
	queues := make([]string, 0, len(tr.QueueConsumers))
	for q := range tr.QueueConsumers {
		queues = append(queues, q)
	}
	sort.Strings(queues)
	for _, q := range queues {
		str(q)
		num(uint64(tr.QueueConsumers[q]))
	}
	num(uint64(len(tr.Recs)))
	for i := range tr.Recs {
		r := &tr.Recs[i]
		num(r.Seq)
		str(r.Node)
		num(uint64(uint32(r.Thread)))
		num(uint64(uint32(r.Ctx)))
		num(uint64(r.CtxKind))
		num(uint64(r.Kind))
		str(r.Obj)
		num(r.Op)
		num(r.WriterSeq)
		num(uint64(uint32(r.StaticID)))
		num(uint64(len(r.Stack)))
		for _, s := range r.Stack {
			num(uint64(uint32(s)))
		}
		str(r.Queue)
		if len(buf) > 1<<16-512 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)[:16])
}
