package trigger

import (
	"strings"
	"testing"

	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/rt"
	"dcatch/internal/trace"
)

// info builds the TrigInfo of the instance-th cluster-wide execution of
// static, which is its nodeSeq-th on node. The controllers do not read the
// per-thread Seq; it is set to instance.
func info(thread int32, node string, static int32, instance, nodeSeq int) rt.TrigInfo {
	return rt.TrigInfo{Thread: thread, Node: node, StaticID: static, Seq: instance, Instance: instance, NodeSeq: nodeSeq}
}

func newController(t *testing.T, points []Point, order []int) *Controller {
	t.Helper()
	c, err := NewController(points, order)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestControllerHappyPath(t *testing.T) {
	c := newController(t, []Point{{StaticID: 10, Instance: 1}, {StaticID: 20, Instance: 1}}, []int{1, 0})
	// Unrelated statement: no park.
	if c.BeforeStmt(info(5, "n", 99, 1, 1)) {
		t.Fatal("parked on unrelated statement")
	}
	// Party A arrives.
	if !c.BeforeStmt(info(1, "n1", 10, 1, 1)) {
		t.Fatal("party A not parked")
	}
	if c.Arrived {
		t.Fatal("Arrived too early")
	}
	// Nothing released while only one waits (not quiesced).
	if rel := c.Release([]int32{1}, false); len(rel) != 0 {
		t.Fatalf("premature release: %v", rel)
	}
	// Party B arrives.
	if !c.BeforeStmt(info(2, "n2", 20, 1, 1)) {
		t.Fatal("party B not parked")
	}
	if !c.Arrived {
		t.Fatal("Arrived not set")
	}
	// Order [1 0] means party B (thread 2) goes first.
	rel := c.Release([]int32{1, 2}, false)
	if len(rel) != 1 || rel[0] != 2 {
		t.Fatalf("first release = %v, want [2]", rel)
	}
	// Nothing more until B confirms.
	if rel := c.Release([]int32{1}, false); len(rel) != 0 {
		t.Fatalf("released before confirm: %v", rel)
	}
	c.AfterStmt(info(2, "n2", 20, 1, 1))
	rel = c.Release([]int32{1}, false)
	if len(rel) != 1 || rel[0] != 1 {
		t.Fatalf("second release = %v, want [1]", rel)
	}
	// Later instances of the points don't park after completion.
	if c.BeforeStmt(info(3, "n1", 10, 2, 2)) {
		t.Fatal("parked after exploration done")
	}
}

func TestControllerSecondInstance(t *testing.T) {
	c := newController(t, []Point{{StaticID: 10, Instance: 2}, {StaticID: 20, Instance: 1}}, []int{0, 1})
	if c.BeforeStmt(info(1, "n", 10, 1, 1)) {
		t.Fatal("parked on wrong instance")
	}
	if !c.BeforeStmt(info(1, "n", 10, 2, 2)) {
		t.Fatal("second instance not parked")
	}
}

func TestControllerNodeMatching(t *testing.T) {
	c := newController(t, []Point{{StaticID: 10, Node: "zk1", Seq: 1}, {StaticID: 20, Instance: 1}}, []int{0, 1})
	// Same statement on another node: no park.
	if c.BeforeStmt(info(1, "zk2", 10, 1, 1)) {
		t.Fatal("parked on wrong node")
	}
	if !c.BeforeStmt(info(2, "zk1", 10, 2, 1)) {
		t.Fatal("right node not parked")
	}
}

func TestControllerForcedOnQuiesce(t *testing.T) {
	c := newController(t, []Point{{StaticID: 10, Instance: 1}, {StaticID: 20, Instance: 1}}, []int{0, 1})
	if !c.BeforeStmt(info(1, "n", 10, 1, 1)) {
		t.Fatal("not parked")
	}
	rel := c.Release([]int32{1}, true) // cluster quiesced
	if len(rel) != 1 || rel[0] != 1 {
		t.Fatalf("forced release = %v", rel)
	}
	if c.Forced != 1 {
		t.Fatalf("Forced = %d", c.Forced)
	}
	if c.Arrived {
		t.Fatal("Arrived after forced release")
	}
}

func TestControllerPatienceTimeout(t *testing.T) {
	c := newController(t, []Point{{StaticID: 10, Instance: 1}, {StaticID: 20, Instance: 1}}, []int{0, 1})
	c.patience = 5
	if !c.BeforeStmt(info(1, "n", 10, 1, 1)) {
		t.Fatal("not parked")
	}
	var released bool
	for i := 0; i < 10; i++ {
		if rel := c.Release([]int32{1}, false); len(rel) > 0 {
			released = true
			break
		}
	}
	if !released || c.TimedOut != 1 {
		t.Fatalf("patience timeout did not fire: released=%v timedOut=%d", released, c.TimedOut)
	}
}

func TestClassify(t *testing.T) {
	ok := &rt.Result{Completed: true}
	bad := &rt.Result{Failures: []rt.Failure{{Kind: rt.FailAbort}}}
	cases := []struct {
		name     string
		attempts []Attempt
		want     Verdict
	}{
		{"harmful", []Attempt{{Arrived: true, Result: ok}, {Arrived: true, Result: bad}}, VerdictHarmful},
		{"benign", []Attempt{{Arrived: true, Result: ok}, {Arrived: true, Result: ok}}, VerdictBenign},
		{"serial-forced", []Attempt{{Forced: 1, Result: ok}, {Forced: 1, Result: ok}}, VerdictSerial},
		{"serial-timeout", []Attempt{{TimedOut: 1, Result: ok}, {TimedOut: 1, Result: ok}}, VerdictSerial},
		{"untriggered", []Attempt{{Result: ok}, {Result: ok}}, VerdictUntriggered},
		{"perturbation-failure", []Attempt{{Forced: 1, Result: bad}, {Forced: 1, Result: ok}}, VerdictHarmful},
	}
	for _, c := range cases {
		if got := classify(c.attempts); got != c.want {
			t.Errorf("%s: classify = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestVerdictStrings(t *testing.T) {
	for v, want := range map[Verdict]string{
		VerdictSerial: "serial", VerdictBenign: "benign",
		VerdictHarmful: "harmful", VerdictUntriggered: "untriggered",
	} {
		if v.String() != want {
			t.Errorf("verdict %d = %q", v, v.String())
		}
	}
}

// --- placement analysis -----------------------------------------------------

func buildTrace(recs []trace.Rec, queues map[string]int) *trace.Trace {
	c := trace.NewCollector("t")
	for q, n := range queues {
		c.SetQueueInfo(q, n)
	}
	for _, r := range recs {
		c.Emit(r)
	}
	return c.Trace()
}

func mustGraph(t *testing.T, tr *trace.Trace) *hb.Graph {
	t.Helper()
	g, err := hb.Build(tr, hb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPlacementRule1SingleConsumerQueue(t *testing.T) {
	tr := buildTrace([]trace.Rec{
		{Node: "n", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KEventCreate, Op: 100, Queue: "n/q", StaticID: 5},
		{Node: "n", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KEventCreate, Op: 101, Queue: "n/q", StaticID: 6},
		{Node: "n", Thread: 2, Ctx: 10, CtxKind: trace.CtxEvent, Kind: trace.KEventBegin, Op: 100, Queue: "n/q", StaticID: -1},
		{Node: "n", Thread: 2, Ctx: 10, CtxKind: trace.CtxEvent, Kind: trace.KMemWrite, Obj: "n/x", StaticID: 10},
		{Node: "n", Thread: 2, Ctx: 11, CtxKind: trace.CtxEvent, Kind: trace.KEventBegin, Op: 101, Queue: "n/q", StaticID: -1},
		{Node: "n", Thread: 2, Ctx: 11, CtxKind: trace.CtxEvent, Kind: trace.KMemRead, Obj: "n/x", StaticID: 20},
	}, map[string]int{"n/q": 1})
	p := &detect.Pair{ARec: 3, BRec: 5, AStatic: 10, BStatic: 20}
	pl := Place(p, tr, mustGraph(t, tr), nil)
	if pl[0].Point.StaticID != 5 || pl[1].Point.StaticID != 6 {
		t.Fatalf("rule 1 placements wrong: %+v", pl)
	}
	if !strings.Contains(pl[0].Moved, "enqueue") {
		t.Fatalf("rule 1 not explained: %+v", pl[0])
	}
}

func TestPlacementRule2SharedRPCWorker(t *testing.T) {
	tr := buildTrace([]trace.Rec{
		{Node: "c1", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KRPCCreate, Op: 50, StaticID: 5},
		{Node: "c2", Thread: 2, Ctx: 2, CtxKind: trace.CtxRegular, Kind: trace.KRPCCreate, Op: 51, StaticID: 6},
		{Node: "srv", Thread: 3, Ctx: 10, CtxKind: trace.CtxRPC, Kind: trace.KRPCBegin, Op: 50, StaticID: -1},
		{Node: "srv", Thread: 3, Ctx: 10, CtxKind: trace.CtxRPC, Kind: trace.KMemWrite, Obj: "srv/x", StaticID: 10},
		{Node: "srv", Thread: 3, Ctx: 10, CtxKind: trace.CtxRPC, Kind: trace.KRPCEnd, Op: 50, StaticID: -1},
		{Node: "srv", Thread: 3, Ctx: 11, CtxKind: trace.CtxRPC, Kind: trace.KRPCBegin, Op: 51, StaticID: -1},
		{Node: "srv", Thread: 3, Ctx: 11, CtxKind: trace.CtxRPC, Kind: trace.KMemRead, Obj: "srv/x", StaticID: 20},
	}, nil)
	p := &detect.Pair{ARec: 3, BRec: 6, AStatic: 10, BStatic: 20}
	pl := Place(p, tr, mustGraph(t, tr), map[string]int{"srv": 1})
	if pl[0].Point.StaticID != 5 || pl[1].Point.StaticID != 6 {
		t.Fatalf("rule 2 placements wrong: %+v", pl)
	}
	// With two workers the rule must not apply.
	pl = Place(p, tr, mustGraph(t, tr), map[string]int{"srv": 2})
	if pl[0].Point.StaticID != 10 {
		t.Fatalf("rule 2 applied despite worker pool: %+v", pl)
	}
}

func TestPlacementRule3SameLock(t *testing.T) {
	tr := buildTrace([]trace.Rec{
		{Node: "n", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KLockAcq, Obj: "n/lk", StaticID: 5},
		{Node: "n", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KMemWrite, Obj: "n/x", StaticID: 10},
		{Node: "n", Thread: 1, Ctx: 1, CtxKind: trace.CtxRegular, Kind: trace.KLockRel, Obj: "n/lk", StaticID: 5},
		{Node: "n", Thread: 2, Ctx: 2, CtxKind: trace.CtxRegular, Kind: trace.KLockAcq, Obj: "n/lk", StaticID: 6},
		{Node: "n", Thread: 2, Ctx: 2, CtxKind: trace.CtxRegular, Kind: trace.KMemRead, Obj: "n/x", StaticID: 20},
		{Node: "n", Thread: 2, Ctx: 2, CtxKind: trace.CtxRegular, Kind: trace.KLockRel, Obj: "n/lk", StaticID: 6},
	}, nil)
	// Note: accesses at index 1 (held by t1) and 4 (held by t2).
	p := &detect.Pair{ARec: 1, BRec: 4, AStatic: 10, BStatic: 20}
	pl := Place(p, tr, mustGraph(t, tr), nil)
	if pl[0].Point.StaticID != 5 || pl[1].Point.StaticID != 6 {
		t.Fatalf("rule 3 placements wrong: %+v", pl)
	}
	if !strings.Contains(pl[0].Moved, "critical section") {
		t.Fatalf("rule 3 not explained: %+v", pl[0])
	}
}

func TestPlacementRule4DynamicInstances(t *testing.T) {
	var recs []trace.Rec
	// A cross-node causal source with few instances.
	recs = append(recs, trace.Rec{Node: "other", Thread: 9, Ctx: 9, CtxKind: trace.CtxRegular, Kind: trace.KSockSend, Op: 70, StaticID: 7})
	recs = append(recs, trace.Rec{Node: "n", Thread: 2, Ctx: 8, CtxKind: trace.CtxMsg, Kind: trace.KSockRecv, Op: 70, StaticID: -1})
	// A hot statement: many dynamic instances in the handler.
	for i := 0; i < 8; i++ {
		recs = append(recs, trace.Rec{Node: "n", Thread: 2, Ctx: 8, CtxKind: trace.CtxMsg, Kind: trace.KMemWrite, Obj: "n/x", StaticID: 10})
	}
	recs = append(recs, trace.Rec{Node: "n", Thread: 3, Ctx: 3, CtxKind: trace.CtxRegular, Kind: trace.KMemRead, Obj: "n/x", StaticID: 20})
	tr := buildTrace(recs, nil)
	p := &detect.Pair{ARec: 5, BRec: len(recs) - 1, AStatic: 10, BStatic: 20}
	pl := Place(p, tr, mustGraph(t, tr), nil)
	if pl[0].Point.StaticID != 7 {
		t.Fatalf("rule 4 did not move along HB graph: %+v", pl)
	}
	if !strings.Contains(pl[0].Moved, "dynamic instances") {
		t.Fatalf("rule 4 not explained: %+v", pl[0])
	}
	// The cold side stays put.
	if pl[1].Point.StaticID != 20 {
		t.Fatalf("cold side moved: %+v", pl[1])
	}
}
