package rt

import (
	"fmt"

	"dcatch/internal/ir"
)

// cell is one shared-heap location. writerSeq is the trace sequence number
// of the last write (0 when the write was untraced), kept even for deleted
// locations so the pull-synchronization analysis can attribute the null a
// reader observes to the delete that produced it.
type cell struct {
	v         ir.Value
	present   bool
	writerSeq uint64
}

// lockState is one node-local lock. Locks are reentrant per thread.
type lockState struct {
	holder  *thread
	depth   int
	waiters []*thread
}

// event is one queued event handler invocation.
type event struct {
	id   uint64 // event-object identity for Rule-Eenq
	fn   string
	args []ir.Value
	// For socket messages: the message tag (KSockRecv); for watch
	// notifications: the zxid (KZKPushed). Zero otherwise.
	sockTag uint64
	zxid    uint64
	zkPath  string
}

// queue is a FIFO event queue with one or more consumer threads.
type queue struct {
	node      *node
	name      string // "node/queue"
	events    []event
	consumers int
	waiting   []*thread // idle consumer threads
}

func (q *queue) push(c *cluster, ev event) {
	q.events = append(q.events, ev)
	if len(q.waiting) > 0 {
		t := q.waiting[0]
		q.waiting = q.waiting[1:]
		c.wake(t)
	}
}

// rpcRequest is a pending or executing inbound RPC.
type rpcRequest struct {
	tag    uint64
	fn     string
	args   []ir.Value
	caller *thread
}

// node is one cluster node.
type node struct {
	name    string
	spec    NodeSpec
	heap    map[string]*cell
	locks   map[string]*lockState
	queues  map[string]*queue
	rpcPend []rpcRequest
	rpcIdle []*thread // idle RPC worker threads
	// rpcActive tracks in-flight requests so callers get an error
	// response if this node crashes mid-call.
	rpcActive map[uint64]*thread // tag -> caller
	crashed   bool
	threads   []*thread
	// trigSeq counts BeforeStmt calls on this node per static ID for
	// TrigInfo.NodeSeq (allocated only when a trigger is attached).
	trigSeq []int
}

func memKey(v string, key ir.Value, hasKey bool) string {
	if !hasKey {
		return v
	}
	return fmt.Sprintf("%s[%s]", v, key)
}

// memID returns the cluster-global memory identity of a location, the "ID"
// of paper §3.1.2 (object identity + field).
func (n *node) memID(k string) string { return n.name + "/" + k }

func (n *node) getCell(k string) *cell {
	c, ok := n.heap[k]
	if !ok {
		c = &cell{}
		n.heap[k] = c
	}
	return c
}

func (n *node) queue(name string) (*queue, error) {
	q, ok := n.queues[name]
	if !ok {
		return nil, fmt.Errorf("node %s has no queue %q", n.name, name)
	}
	return q, nil
}
