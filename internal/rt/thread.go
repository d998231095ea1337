package rt

import (
	"fmt"

	"dcatch/internal/ir"
	"dcatch/internal/trace"
)

type threadState uint8

const (
	tsRunnable threadState = iota
	tsBlocked
	tsSleeping
	tsTrigParked
	tsDone
)

type blockReason uint8

const (
	brNone blockReason = iota
	brLock
	brQueue
	brRPC
	brJoin
)

func (b blockReason) String() string {
	switch b {
	case brLock:
		return "lock"
	case brQueue:
		return "queue"
	case brRPC:
		return "rpc-response"
	case brJoin:
		return "thread-join"
	default:
		return "none"
	}
}

// frame is one interpreter stack frame.
type frame struct {
	fn     *ir.Func
	locals map[string]ir.Value
	// callSite is the static ID of the Call statement that created this
	// frame (-1 for a thread/handler entry frame).
	callSite int32
	parent   *frame
}

func (f *frame) stack() []int32 {
	var ids []int32
	for fr := f; fr != nil; fr = fr.parent {
		if fr.callSite >= 0 {
			ids = append(ids, fr.callSite)
		}
	}
	// Reverse to root-first order.
	for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
		ids[i], ids[j] = ids[j], ids[i]
	}
	return ids
}

// thread is one simulated thread. Each thread runs in its own goroutine but
// executes only while holding the baton. There is no scheduler goroutine:
// the thread giving up the baton runs the scheduler itself (cluster.next)
// and hands the baton straight to the thread it picked by sending on that
// thread's resume channel, or to Run on the cluster's done channel when the
// run is over. A thread that picks itself keeps running without any channel
// operation. Exactly one goroutine is ever active, so cluster state needs no
// locking.
type thread struct {
	id     int32
	c      *cluster
	node   *node
	daemon bool
	name   string // diagnostic: "main:fn", "rpc-worker", "events-consumer", ...

	state  threadState
	reason blockReason
	wakeAt int // for tsSleeping, in steps

	resume chan struct{}

	// Execution context for tracing: ctx is the current handler-instance
	// (or thread-regular) context; see trace.CtxKind.
	ctx     int32
	ctxKind trace.CtxKind

	// rpcResult carries an RPC response back to a blocked caller.
	rpcResult ir.Value
	rpcErr    string

	killed  bool
	joiners []*thread
	ended   bool // End record emitted / joinable

	// pos tracks the last statement for hang diagnostics.
	pos string

	// trigSeq counts dynamic instances per static ID for TrigInfo.Seq,
	// indexed by static ID (allocated only when a trigger is attached).
	trigSeq []int

	// after holds the TrigInfo of a statement the trigger controller
	// parked, so AfterStmt (the confirm message) fires right after it
	// executes; hasAfter says whether it is set.
	after    TrigInfo
	hasAfter bool
}

func (t *thread) String() string {
	return fmt.Sprintf("t%d(%s@%s)", t.id, t.name, t.node.name)
}

// flowKind steers structured control flow through the interpreter.
type flowKind uint8

const (
	flowNormal flowKind = iota
	flowReturn
	flowBreak
	flowThrow
	flowKill // node crashed or thread killed: unwind completely
)

type flow struct {
	kind flowKind
	val  ir.Value
	exc  string
	msg  string
	// excStatic is the static ID of the originating Throw (or must-op),
	// used when an uncaught exception becomes a failure.
	excStatic int32
}

var normal = flow{kind: flowNormal}

func throwFlow(exc, msg string, static int32) flow {
	return flow{kind: flowThrow, exc: exc, msg: msg, excStatic: static}
}

// yield ends the thread's current step: it runs the scheduler to pick the
// next step and, unless that is its own, hands the baton to the picked
// thread (or to Run when the run is over) and parks until resumed. Returns
// false when the thread was killed while parked, and always during teardown.
func (t *thread) yield() bool {
	c := t.c
	if c.stopping {
		return false
	}
	if next := c.next(); next != t {
		c.handTo(next)
		<-t.resume
	}
	return !t.killed
}

// block parks the thread with the given reason; some other action must
// call cluster.wake before it runs again.
func (t *thread) block(r blockReason) bool {
	t.state = tsBlocked
	t.reason = r
	return t.yield()
}

// finish marks the thread done and hands the baton on for good: to the
// thread the scheduler picks next, or to Run when the run is over or being
// torn down. The goroutine exits right after.
func (t *thread) finish() {
	t.state = tsDone
	t.endThread()
	c := t.c
	if c.stopping {
		c.done <- struct{}{}
		return
	}
	c.handTo(c.next())
}

// endThread emits the thread-End record (once) and wakes joiners.
func (t *thread) endThread() {
	if t.ended {
		return
	}
	t.ended = true
	if !t.killed {
		t.c.emit(t, trace.Rec{Kind: trace.KThreadEnd, Op: uint64(t.id), StaticID: -1})
	}
	for _, j := range t.joiners {
		t.c.wake(j)
	}
	t.joiners = nil
}
