package rt

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"dcatch/internal/ir"
	"dcatch/internal/trace"
	"dcatch/internal/zk"
)

type msgKind uint8

const (
	mRPCReq msgKind = iota
	mRPCResp
	mSock
	mWatch
)

// message is one in-flight network message. Delivery order is a scheduler
// decision, which is where inter-node timing nondeterminism comes from.
type message struct {
	kind   msgKind
	target string
	tag    uint64
	fn     string
	args   []ir.Value
	caller *thread // RPC request/response correlation
	val    ir.Value
	errMsg string
	notif  zk.Notification
}

// Internal queue names for socket-message and watch-notification handling.
const (
	netQueue   = "_net"
	watchQueue = "_watch"
)

type cluster struct {
	w    *Workload
	opts Options
	prog *ir.Program
	rng  *rand.Rand
	col  *trace.Collector

	nodes     map[string]*node
	nodeOrder []string
	threads   []*thread
	network   []message

	zk *zk.Store

	steps    int
	maxSteps int
	res      Result

	nextThreadID int32
	nextCtxID    int32
	nextTag      uint64

	// done receives the baton back from the thread whose scheduler pick
	// ended the run, and from each thread teardown unwinds.
	done chan struct{}
	// stopping is set once Run has read the result: threads killed by
	// teardown unwind without running the scheduler again.
	stopping bool

	// runBuf and parkBuf are next's reused runnable and trigger-parked
	// sets; trigInstance counts BeforeStmt calls per static ID for
	// TrigInfo.Instance (allocated only when a trigger is attached).
	runBuf       []*thread
	parkBuf      []int32
	trigInstance []int

	fatalErr error
}

// Run executes the workload under the given options and returns the
// observed result. It is deterministic for a fixed (workload, options.Seed)
// pair.
func Run(w *Workload, opts Options) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	c := &cluster{
		w:        w,
		opts:     opts,
		prog:     w.Program,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		col:      opts.Collector,
		nodes:    map[string]*node{},
		zk:       zk.NewStore(),
		maxSteps: opts.MaxSteps,
		done:     make(chan struct{}),
	}
	if c.maxSteps <= 0 {
		c.maxSteps = defaultMaxSteps
	}
	if opts.Trigger != nil {
		c.trigInstance = make([]int, c.prog.NumStmts())
	}
	c.setup()
	if t := c.next(); t != nil {
		t.resume <- struct{}{}
		<-c.done
	}
	err := c.fatalErr
	var res Result
	if err == nil {
		c.finishResult()
		res = c.res
	}
	c.teardown()
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// teardown kills every thread that is not done and resumes each in turn,
// waiting while it unwinds, so no thread goroutine outlives Run. Killed
// threads emit no records and make no trigger calls.
func (c *cluster) teardown() {
	c.stopping = true
	for _, t := range c.threads {
		if t.state == tsDone {
			continue
		}
		t.killed = true
		t.resume <- struct{}{}
		<-c.done
	}
}

func (c *cluster) setup() {
	for _, spec := range c.w.Nodes {
		n := &node{
			name:      spec.Name,
			spec:      spec,
			heap:      map[string]*cell{},
			locks:     map[string]*lockState{},
			queues:    map[string]*queue{},
			rpcActive: map[uint64]*thread{},
		}
		if c.opts.Trigger != nil {
			n.trigSeq = make([]int, c.prog.NumStmts())
		}
		c.nodes[spec.Name] = n
		c.nodeOrder = append(c.nodeOrder, spec.Name)

		for _, qs := range spec.Queues {
			q := &queue{node: n, name: spec.Name + "/" + qs.Name, consumers: qs.Consumers}
			n.queues[qs.Name] = q
			if c.col != nil {
				c.col.SetQueueInfo(q.name, qs.Consumers)
			}
			for i := 0; i < qs.Consumers; i++ {
				t := c.newThread(n, fmt.Sprintf("%s-consumer%d", qs.Name, i), true)
				c.startConsumer(t, q, consumeEvent)
			}
		}
		if spec.NetWorkers > 0 {
			q := &queue{node: n, name: spec.Name + "/" + netQueue, consumers: spec.NetWorkers}
			n.queues[netQueue] = q
			for i := 0; i < spec.NetWorkers; i++ {
				t := c.newThread(n, fmt.Sprintf("msg-handler%d", i), true)
				c.startConsumer(t, q, consumeSock)
			}
		}
		// Watch-notification delivery queue (one dispatcher, like the
		// ZooKeeper client's event thread).
		wq := &queue{node: n, name: spec.Name + "/" + watchQueue, consumers: 1}
		n.queues[watchQueue] = wq
		t := c.newThread(n, "zk-event", true)
		c.startConsumer(t, wq, consumeWatch)

		for i := 0; i < spec.RPCWorkers; i++ {
			t := c.newThread(n, fmt.Sprintf("rpc-worker%d", i), true)
			c.startRPCWorker(t)
		}
		for _, m := range spec.Mains {
			mt := c.newThread(n, "main:"+m.Fn, false)
			c.startMain(mt, m)
		}
	}
}

// newThread allocates a thread in runnable state; the caller must start its
// goroutine via one of the start* helpers.
func (c *cluster) newThread(n *node, name string, daemon bool) *thread {
	c.nextThreadID++
	t := &thread{
		id:     c.nextThreadID,
		c:      c,
		node:   n,
		daemon: daemon,
		name:   name,
		state:  tsRunnable,
		resume: make(chan struct{}),
	}
	if c.opts.Trigger != nil {
		t.trigSeq = make([]int, c.prog.NumStmts())
	}
	n.threads = append(n.threads, t)
	c.threads = append(c.threads, t)
	return t
}

// start launches the thread goroutine around body. The goroutine waits for
// its first scheduling slot, runs body, hands the baton on and exits. An
// interpreter panic becomes the run's fatal error, which ends the run at the
// next scheduler pick.
func (c *cluster) start(t *thread, body func()) {
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if c.fatalErr == nil {
					c.fatalErr = fmt.Errorf("rt: internal panic in %s at %s: %v", t, t.pos, r)
				}
				t.finish()
			}
		}()
		<-t.resume
		if !t.killed {
			body()
		}
		t.finish()
	}()
}

// handTo passes the baton to t, or back to Run when t is nil.
func (c *cluster) handTo(t *thread) {
	if t == nil {
		c.done <- struct{}{}
		return
	}
	t.resume <- struct{}{}
}

func (c *cluster) newCtx() int32 {
	c.nextCtxID++
	return c.nextCtxID
}

func (c *cluster) tag() uint64 {
	c.nextTag++
	return c.nextTag
}

// wake makes a parked thread schedulable again.
func (c *cluster) wake(t *thread) {
	if t.state == tsBlocked || t.state == tsSleeping || t.state == tsTrigParked {
		t.state = tsRunnable
		t.reason = brNone
	}
}

// emit records a trace record in t's current context. fr may be nil for
// runtime-internal operations. Returns the record's sequence number (0 when
// tracing is off).
func (c *cluster) emit(t *thread, r trace.Rec) uint64 { return c.emitF(t, nil, r) }

func (c *cluster) emitF(t *thread, fr *frame, r trace.Rec) uint64 {
	if c.col == nil {
		return 0
	}
	r.Node = t.node.name
	r.Thread = t.id
	r.Ctx = t.ctx
	r.CtxKind = t.ctxKind
	if fr != nil {
		r.Stack = fr.stack()
	}
	return c.col.Emit(r)
}

// next is the cooperative scheduler, run by whichever goroutine gives up
// the baton: exactly one thread step or one message delivery per iteration,
// chosen pseudo-randomly. Deliveries happen in place; next returns at the
// first iteration that picks a thread, or nil when the run is over
// (quiesced, step budget exhausted, or an interpreter panic).
func (c *cluster) next() *thread {
	for {
		if c.fatalErr != nil {
			return nil
		}
		// Wake sleepers whose deadline arrived.
		for _, t := range c.threads {
			if t.state == tsSleeping && t.wakeAt <= c.steps {
				c.wake(t)
			}
		}
		runnable := c.runnable()

		if c.opts.Trigger != nil {
			if parked := c.trigParked(); len(parked) > 0 {
				quiesced := len(runnable) == 0 && len(c.network) == 0 && !c.anySleeper()
				for _, id := range c.opts.Trigger.Release(parked, quiesced) {
					if t := c.threadByID(id); t != nil && t.state == tsTrigParked {
						c.wake(t)
					}
				}
				runnable = c.runnable()
			}
		}

		if len(runnable) == 0 && len(c.network) == 0 {
			if next, ok := c.nextWake(); ok {
				if next > c.steps {
					c.steps = next
				} else {
					c.steps++
				}
				continue
			}
			return nil // quiesced: finishResult classifies
		}

		if c.steps >= c.maxSteps {
			c.res.Hang = true
			c.res.HangInfo = fmt.Sprintf("step budget (%d) exhausted; live: %s", c.maxSteps, c.liveInfo())
			c.res.Failures = append(c.res.Failures, Failure{Kind: FailHang, Node: "-", Msg: c.res.HangInfo, StaticID: -1})
			return nil
		}
		c.steps++

		pick := c.rng.Intn(len(runnable) + len(c.network))
		if pick < len(runnable) {
			return runnable[pick]
		}
		c.deliver(pick - len(runnable))
	}
}

// runnable returns the runnable threads in creation order, in a buffer the
// next call reuses.
func (c *cluster) runnable() []*thread {
	rs := c.runBuf[:0]
	for _, t := range c.threads {
		if t.state == tsRunnable {
			rs = append(rs, t)
		}
	}
	c.runBuf = rs
	return rs
}

// trigParked returns the IDs of the trigger-parked threads, in a buffer the
// next call reuses.
func (c *cluster) trigParked() []int32 {
	ids := c.parkBuf[:0]
	for _, t := range c.threads {
		if t.state == tsTrigParked {
			ids = append(ids, t.id)
		}
	}
	c.parkBuf = ids
	return ids
}

// threadByID returns the thread with the given ID: IDs count up from 1 in
// creation order, so thread id sits at c.threads[id-1].
func (c *cluster) threadByID(id int32) *thread {
	if id < 1 || int(id) > len(c.threads) {
		return nil
	}
	return c.threads[id-1]
}

func (c *cluster) anySleeper() bool {
	for _, t := range c.threads {
		if t.state == tsSleeping {
			return true
		}
	}
	return false
}

func (c *cluster) nextWake() (int, bool) {
	best, ok := 0, false
	for _, t := range c.threads {
		if t.state == tsSleeping && (!ok || t.wakeAt < best) {
			best, ok = t.wakeAt, true
		}
	}
	return best, ok
}

func (c *cluster) liveInfo() string {
	var parts []string
	for _, t := range c.threads {
		if t.state == tsDone || t.daemon {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s state=%d at %s", t, t.state, t.pos))
	}
	if len(parts) == 0 {
		for _, t := range c.threads {
			if t.state == tsRunnable || t.state == tsBlocked {
				parts = append(parts, fmt.Sprintf("%s state=%d at %s", t, t.state, t.pos))
			}
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, "; ")
}

// finishResult classifies the quiesced cluster: every non-daemon thread done
// means completion; a blocked non-daemon thread is a deadlock hang.
func (c *cluster) finishResult() {
	if c.res.Hang {
		c.res.Steps = c.steps
		return
	}
	var stuck []string
	for _, t := range c.threads {
		if t.daemon || t.state == tsDone {
			continue
		}
		stuck = append(stuck, fmt.Sprintf("%s blocked on %s at %s", t, t.reason, t.pos))
	}
	if len(stuck) > 0 {
		sort.Strings(stuck)
		c.res.Hang = true
		c.res.HangInfo = "deadlock: " + strings.Join(stuck, "; ")
		c.res.Failures = append(c.res.Failures, Failure{Kind: FailHang, Node: "-", Msg: c.res.HangInfo, StaticID: -1})
	} else {
		c.res.Completed = true
	}
	c.res.Steps = c.steps
}

// deliver processes network message i, inside next.
func (c *cluster) deliver(i int) {
	m := c.network[i]
	c.network = append(c.network[:i], c.network[i+1:]...)
	n := c.nodes[m.target]
	switch m.kind {
	case mRPCResp:
		t := m.caller
		if t == nil || t.killed || t.state == tsDone {
			return
		}
		t.rpcResult = m.val
		t.rpcErr = m.errMsg
		c.wake(t)
	case mRPCReq:
		if n == nil || n.crashed || n.spec.RPCWorkers == 0 {
			c.network = append(c.network, message{
				kind: mRPCResp, target: "", caller: m.caller,
				errMsg: fmt.Sprintf("rpc %s to %s failed: unreachable", m.fn, m.target),
			})
			return
		}
		n.rpcPend = append(n.rpcPend, rpcRequest{tag: m.tag, fn: m.fn, args: m.args, caller: m.caller})
		if len(n.rpcIdle) > 0 {
			t := n.rpcIdle[0]
			n.rpcIdle = n.rpcIdle[1:]
			c.wake(t)
		}
	case mSock:
		if n == nil || n.crashed {
			return // dropped on the floor, like a closed socket
		}
		q, ok := n.queues[netQueue]
		if !ok {
			return
		}
		q.push(c, event{id: c.tag(), fn: m.fn, args: m.args, sockTag: m.tag})
	case mWatch:
		if n == nil || n.crashed {
			return
		}
		q := n.queues[watchQueue]
		args := []ir.Value{
			ir.StrV(m.notif.Path),
			ir.StrV(m.notif.Data),
			ir.StrV(m.notif.Kind.String()),
		}
		q.push(c, event{id: c.tag(), fn: m.notif.Handler, args: args, zxid: m.notif.Zxid, zkPath: m.notif.Path})
	}
}

// pushNotifs converts zk watch notifications into network messages.
func (c *cluster) pushNotifs(ns []zk.Notification) {
	for _, n := range ns {
		c.network = append(c.network, message{kind: mWatch, target: n.Watcher, notif: n})
	}
}

// crashNode kills a node: threads die, active and pending RPCs get error
// responses, ephemeral znodes expire.
func (c *cluster) crashNode(n *node) {
	if n.crashed {
		return
	}
	n.crashed = true
	c.pushNotifs(c.zk.ExpireSession(n.name))
	for tag, caller := range n.rpcActive {
		c.network = append(c.network, message{
			kind: mRPCResp, caller: caller,
			errMsg: fmt.Sprintf("rpc tag %d failed: node %s died", tag, n.name),
		})
		delete(n.rpcActive, tag)
	}
	for _, req := range n.rpcPend {
		c.network = append(c.network, message{
			kind: mRPCResp, caller: req.caller,
			errMsg: fmt.Sprintf("rpc %s failed: node %s died", req.fn, n.name),
		})
	}
	n.rpcPend = nil
	n.rpcIdle = nil
	for _, t := range n.threads {
		if t.state == tsDone {
			continue
		}
		t.killed = true
		t.endThread() // wake joiners; no End record for killed threads
		if t.state != tsRunnable {
			c.wake(t)
		}
	}
}

func (c *cluster) logLine(s string) {
	c.res.LogLines = append(c.res.LogLines, s)
}
