// Package testtrace generates the synthetic traces that tests across the
// module analyze. Only _test.go files may import it. The benchmark's
// workloads use frozen copies (benchmark/gen.go), so editing this package
// cannot move a benchmark number.
package testtrace

import (
	"fmt"
	"math/rand"

	"dcatch/internal/hb"
	"dcatch/internal/trace"
)

// SyntheticTrace generates a deterministic, causally consistent trace of n
// records for analysis-pipeline benchmarking: a 4-node cluster where worker
// threads issue memory accesses over per-node object pools, open and close
// cross-node causal pairs (fork/join, RPC, socket, ZooKeeper push), and feed
// single-consumer event queues whose handlers exercise Rule-Eserial. Every
// pair closure points forward in trace time, so the trace is a valid DCatch
// run trace; the same (n, seed) always yields the same records.
func SyntheticTrace(n int, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	c := trace.NewCollector("synthetic")

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
	nextOp := uint64(1)
	nextCtx := int32(10_000)

	for i := 0; i < n; i++ {
		nd := rng.Intn(nodes)
		t := 1 + rng.Intn(threadsPerNode-1)
		r := trace.Rec{
			Node: nodeName(nd), Thread: threadID(nd, t), Ctx: threadID(nd, t),
			CtxKind:  trace.CtxRegular,
			StaticID: int32(rng.Intn(200)),
			Stack:    []int32{int32(rng.Intn(40))},
		}
		obj := func() string { return fmt.Sprintf("n%d/o%d", nd, rng.Intn(objsPerNode)) }
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // read
			r.Kind = trace.KMemRead
			r.Obj = obj()
		case 4, 5, 6: // write
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
				r.Ctx = nextCtx
				r.CtxKind = trace.CtxRPC
				nextCtx++
			case trace.KSockSend:
				r.Kind = trace.KSockRecv
				r.Ctx = nextCtx
				r.CtxKind = trace.CtxMsg
				nextCtx++
			case trace.KZKUpdate:
				r.Kind = trace.KZKPushed
				r.Ctx = nextCtx
				r.CtxKind = trace.CtxWatch
				nextCtx++
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
				r.Ctx = nextCtx
				r.CtxKind = trace.CtxEvent
				r.Kind = trace.KEventBegin
				r.Op = op
				r.Queue = queueName(nd)
				evRunning[nd] = op
				evCtx[nd] = nextCtx
				nextCtx++
			default: // enqueue a new event from a worker thread
				r.Kind = trace.KEventCreate
				r.Op = nextOp
				r.Queue = queueName(nd)
				evPending[nd] = append(evPending[nd], nextOp)
				nextOp++
			}
		}
		c.Emit(r)
	}
	return c.Trace()
}

// SyntheticTraceBounded is the memory-scaling variant of SyntheticTrace: the
// same cluster shape and rule mix, but with a bounded program-order context
// count. SyntheticTrace mints a fresh context per RPC/message/watch handler
// instance, so its chain count grows linearly with the trace — realistic for
// handler-heavy runs but the worst case for the chain admission model.
// Real long traces are dominated by a fixed set of worker loops; this
// generator models that: cross-node closes land on the receiver's regular
// thread context, and only a fixed budget of event-handler instances get
// fresh contexts. The chain count is therefore constant (~208) regardless of
// n, which is the regime where the chain model's O(V·C) footprint beats the
// dense O(V²) bit matrix.
func SyntheticTraceBounded(n int, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	c := trace.NewCollector("synthetic-bounded")

	const nodes = 4
	const threadsPerNode = 4 // thread 0 of each node is the event consumer
	const objsPerNode = 48
	const handlerBudget = 192 // total event-handler instances (fresh contexts)
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
	evPending := make([][]uint64, nodes)
	evRunning := make([]uint64, nodes)
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
			StaticID: int32(rng.Intn(24)),
			Stack:    []int32{int32(rng.Intn(8))},
		}
		obj := func() string { return fmt.Sprintf("n%d/o%d", nd, rng.Intn(objsPerNode)) }
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
		case 8: // close a pending pair on the receiver's own worker loop
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
			case trace.KSockSend:
				r.Kind = trace.KSockRecv
			case trace.KZKUpdate:
				r.Kind = trace.KZKPushed
			}
		default: // event-queue activity, fresh contexts capped by the budget
			switch {
			case evRunning[nd] != 0:
				r.Thread = threadID(nd, 0)
				r.Ctx = evCtx[nd]
				r.CtxKind = trace.CtxEvent
				r.Kind = trace.KEventEnd
				r.Op = evRunning[nd]
				r.Queue = queueName(nd)
				evRunning[nd] = 0
			case len(evPending[nd]) > 0:
				op := evPending[nd][0]
				evPending[nd] = evPending[nd][1:]
				r.Thread = threadID(nd, 0)
				r.Ctx = nextCtx
				r.CtxKind = trace.CtxEvent
				r.Kind = trace.KEventBegin
				r.Op = op
				r.Queue = queueName(nd)
				evRunning[nd] = op
				evCtx[nd] = nextCtx
				nextCtx++
			case evCreated < handlerBudget:
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

// IncrMemBudget picks a reachability budget that forces the chunked path on
// the full trace while leaving every window comfortable: four times the
// largest per-window estimate, pulled under the full-build estimate if the
// trace is too small for that margin. Estimates come from the same
// admission predicate the analysis itself uses, so "forces chunking" is
// exact, not heuristic.
func IncrMemBudget(tr *trace.Trace, chunkSize int, cfg hb.Config) (int64, error) {
	// estimate(t) = the smallest budget the full-build admission check
	// accepts for t; FullBuildExceedsBudget is monotone in the budget.
	estimate := func(t *trace.Trace) int64 {
		lo, hi := int64(1), int64(1)<<40
		for lo < hi {
			mid := lo + (hi-lo)/2
			if hb.FullBuildExceedsBudget(t, hb.Config{ReachBackend: cfg.ReachBackend, MemBudget: mid}) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	full := estimate(tr)
	var wmax int64
	for _, wn := range hb.ChunkWindows(len(tr.Recs), chunkSize, 0) {
		if est := estimate(tr.Window(wn[0], wn[1])); est > wmax {
			wmax = est
		}
	}
	budget := 4 * wmax
	if budget >= full {
		budget = wmax + (full-wmax)/2
	}
	if budget < wmax || budget >= full {
		return 0, fmt.Errorf("bench: %d records in %d-record windows cannot force chunking (window estimate %d, full estimate %d)",
			len(tr.Recs), chunkSize, wmax, full)
	}
	return budget, nil
}
