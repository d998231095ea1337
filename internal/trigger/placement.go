package trigger

import (
	"fmt"

	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/trace"
)

// Placement is the outcome of the request-placement analysis for one party.
type Placement struct {
	Point Point
	// Moved explains why the request was moved away from the racing
	// access itself ("" when attached directly).
	Moved string
}

// maxInstances is the dynamic-instance threshold of §5.2's second analysis:
// racing accesses executed more often than this get their request moved
// along the HB graph to a causally preceding operation on another node.
const maxInstances = 4

// Place computes request placements for a candidate pair, implementing the
// three hang-avoidance rules and the dynamic-instance rule of paper §5.2:
//
//  1. Both accesses in event handlers of the same single-consumer queue →
//     attach requests to the corresponding event-enqueue statements.
//  2. Both accesses in RPC handlers served by the same single worker thread
//     → attach requests to the RPC call sites.
//  3. Both accesses inside critical sections of the same lock → attach
//     requests right before the critical sections.
//  4. Too many dynamic instances of an access → move its request along the
//     HB graph to a causally preceding operation on a different node.
func Place(p *detect.Pair, tr *trace.Trace, g *hb.Graph, rpcWorkers map[string]int) [2]Placement {
	recs := [2]int{p.ARec, p.BRec}
	moved := [2]string{}

	// Rule 1: same single-consumer event queue — move to the enqueues.
	ra, rb := recAt(tr, recs[0]), recAt(tr, recs[1])
	if ra != nil && rb != nil && ra.CtxKind == trace.CtxEvent && rb.CtxKind == trace.CtxEvent {
		qa, ea := handlerQueue(tr, recs[0])
		qb, eb := handlerQueue(tr, recs[1])
		if qa != "" && qa == qb && tr.SingleConsumer(qa) {
			if ca, cb := eventCreateRec(tr, qa, ea), eventCreateRec(tr, qb, eb); ca >= 0 && cb >= 0 {
				recs = [2]int{ca, cb}
				moved = [2]string{"single-consumer queue: request moved to event enqueue",
					"single-consumer queue: request moved to event enqueue"}
			}
		}
	}

	// Rule 2: RPC handlers sharing one worker thread — move to the RPC
	// callers. Applied after rule 1 so a request moved into an enqueue
	// inside an RPC handler cascades out to the caller (§7.2's "in two
	// cases, DCatch first moves request from inside RPC handlers into RPC
	// callers").
	ra, rb = recAt(tr, recs[0]), recAt(tr, recs[1])
	if ra != nil && rb != nil && ra.CtxKind == trace.CtxRPC && rb.CtxKind == trace.CtxRPC &&
		ra.Node == rb.Node && rpcWorkers[ra.Node] == 1 {
		if ca, cb := rpcCreateRec(tr, recs[0]), rpcCreateRec(tr, recs[1]); ca >= 0 && cb >= 0 {
			recs = [2]int{ca, cb}
			add := "shared RPC worker: request moved to RPC caller"
			for i := range moved {
				if moved[i] != "" {
					moved[i] += "; " + add
				} else {
					moved[i] = add
				}
			}
		}
	}

	// Rule 3: same lock's critical sections — move before the Sync.
	la, sa := heldLock(tr, recs[0])
	lb, sb := heldLock(tr, recs[1])
	if la != "" && la == lb {
		return [2]Placement{
			{Point: Point{StaticID: sa, Instance: instanceOfStatic(tr, recs[0], sa)},
				Moved: "same lock: request moved before critical section"},
			{Point: Point{StaticID: sb, Instance: instanceOfStatic(tr, recs[1], sb)},
				Moved: "same lock: request moved before critical section"},
		}
	}

	// Rule 4: per-side dynamic-instance explosion — move along the HB
	// graph to a causally preceding operation on another node.
	var out [2]Placement
	for i, rec := range recs {
		r := recAt(tr, rec)
		if r != nil && dynamicInstances(tr, r.StaticID) > maxInstances {
			if pre := crossNodePredecessor(tr, g, rec); pre >= 0 {
				out[i] = Placement{Point: directPoint(tr, pre),
					Moved: fmt.Sprintf("%d dynamic instances: request moved along HB graph to %s",
						dynamicInstances(tr, r.StaticID), tr.Recs[pre].Node)}
				continue
			}
		}
		out[i] = Placement{Point: directPoint(tr, rec), Moved: moved[i]}
	}
	return out
}

func recAt(tr *trace.Trace, i int) *trace.Rec {
	if i < 0 || i >= len(tr.Recs) {
		return nil
	}
	return &tr.Recs[i]
}

// directPoint attaches a request directly to the record's statement, at its
// observed per-node dynamic instance (robust against the reordering and
// worker reassignment the controlled run itself introduces).
func directPoint(tr *trace.Trace, rec int) Point {
	r := recAt(tr, rec)
	if r == nil {
		return Point{StaticID: -1, Instance: 1}
	}
	seq := 0
	for i := 0; i <= rec; i++ {
		c := &tr.Recs[i]
		if c.StaticID == r.StaticID && c.Kind == r.Kind && c.Node == r.Node {
			seq++
		}
	}
	return Point{
		StaticID: r.StaticID,
		Instance: instanceOfStatic(tr, rec, r.StaticID),
		Node:     r.Node,
		Seq:      seq,
	}
}

// instanceOfStatic counts how many executions of static occur up to and
// including record rec: the dynamic instance index the controller must
// intercept. One statement execution can emit several records (e.g. a znode
// mutation emits both an Update and a memory access), so only records of
// rec's own kind are counted.
func instanceOfStatic(tr *trace.Trace, rec int, static int32) int {
	if rec < 0 || rec >= len(tr.Recs) {
		return 1
	}
	kind := tr.Recs[rec].Kind
	n := 0
	for i := 0; i <= rec; i++ {
		if tr.Recs[i].StaticID == static && tr.Recs[i].Kind == kind {
			n++
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}

// dynamicInstances estimates how often a statement executed, using its most
// frequent record kind as a proxy.
func dynamicInstances(tr *trace.Trace, static int32) int {
	perKind := map[trace.Kind]int{}
	max := 0
	for i := range tr.Recs {
		if tr.Recs[i].StaticID == static {
			perKind[tr.Recs[i].Kind]++
			if perKind[tr.Recs[i].Kind] > max {
				max = perKind[tr.Recs[i].Kind]
			}
		}
	}
	return max
}

// handlerQueue finds the queue and event ID of the handler instance that
// produced record rec, via its EventBegin record.
func handlerQueue(tr *trace.Trace, rec int) (queue string, eventID uint64) {
	r := recAt(tr, rec)
	if r == nil {
		return "", 0
	}
	for i := rec; i >= 0; i-- {
		b := &tr.Recs[i]
		if b.Thread == r.Thread && b.Ctx == r.Ctx && b.Kind == trace.KEventBegin {
			return b.Queue, b.Op
		}
	}
	return "", 0
}

// eventCreateRec finds the EventCreate record of the given event.
func eventCreateRec(tr *trace.Trace, queue string, eventID uint64) int {
	for i := range tr.Recs {
		r := &tr.Recs[i]
		if r.Kind == trace.KEventCreate && r.Queue == queue && r.Op == eventID && r.StaticID >= 0 {
			return i
		}
	}
	return -1
}

// rpcCreateRec finds the RPCCreate record of the RPC instance containing
// record rec.
func rpcCreateRec(tr *trace.Trace, rec int) int {
	r := recAt(tr, rec)
	if r == nil {
		return -1
	}
	var tag uint64
	for i := rec; i >= 0; i-- {
		b := &tr.Recs[i]
		if b.Thread == r.Thread && b.Ctx == r.Ctx && b.Kind == trace.KRPCBegin {
			tag = b.Op
			break
		}
	}
	if tag == 0 {
		return -1
	}
	for i := range tr.Recs {
		b := &tr.Recs[i]
		if b.Kind == trace.KRPCCreate && b.Op == tag && b.StaticID >= 0 {
			return i
		}
	}
	return -1
}

// heldLock reports the innermost lock held at record rec within its context,
// and the static ID of the Sync statement that acquired it.
func heldLock(tr *trace.Trace, rec int) (lockID string, syncStatic int32) {
	r := recAt(tr, rec)
	if r == nil {
		return "", -1
	}
	type held struct {
		obj    string
		static int32
	}
	var stack []held
	for i := 0; i <= rec; i++ {
		b := &tr.Recs[i]
		if b.Thread != r.Thread || b.Ctx != r.Ctx {
			continue
		}
		switch b.Kind {
		case trace.KLockAcq:
			stack = append(stack, held{b.Obj, b.StaticID})
		case trace.KLockRel:
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		}
	}
	if len(stack) == 0 {
		return "", -1
	}
	top := stack[len(stack)-1]
	return top.obj, top.static
}

// crossNodePredecessor picks the latest record on a different node that
// happens before rec and has a user-level statement to attach to, reading
// rec's backward cone once.
func crossNodePredecessor(tr *trace.Trace, g *hb.Graph, rec int) int {
	r := recAt(tr, rec)
	if r == nil || g == nil || rec >= g.N() {
		return -1
	}
	cone := g.Ancestors(rec)
	for i := rec - 1; i >= 0; i-- {
		c := &tr.Recs[i]
		if !cone[i] || c.Node == r.Node || c.StaticID < 0 {
			continue
		}
		if dynamicInstances(tr, c.StaticID) <= maxInstances {
			return i
		}
	}
	return -1
}
