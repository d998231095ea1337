package trigger

import (
	"strings"
	"testing"

	"dcatch/internal/ir"
	"dcatch/internal/rt"
)

func TestNewControllerValidation(t *testing.T) {
	pts := []Point{{StaticID: 1, Instance: 1}, {StaticID: 2, Instance: 1}}
	if _, err := NewController(pts, []int{0}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := NewController(pts, []int{0, 0}); err == nil {
		t.Fatal("non-permutation accepted")
	}
	if _, err := NewController(pts, []int{0, 2}); err == nil {
		t.Fatal("out-of-range order accepted")
	}
	if _, err := NewController(pts, []int{1, 0}); err != nil {
		t.Fatalf("valid order rejected: %v", err)
	}
}

func TestControllerGrantSequence(t *testing.T) {
	pts := []Point{
		{StaticID: 10, Instance: 1},
		{StaticID: 20, Instance: 1},
		{StaticID: 30, Instance: 1},
	}
	c, err := NewController(pts, []int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, static := range []int32{10, 20, 30} {
		if !c.BeforeStmt(info(int32(i+1), "n", static, 1, 1)) {
			t.Fatalf("party %d not parked", i)
		}
	}
	if !c.Arrived {
		t.Fatal("Arrived not set")
	}
	parked := []int32{1, 2, 3}
	// Grant order: party 2 (thread 3), then 0 (thread 1), then 1 (thread 2).
	want := []int32{3, 1, 2}
	for step, wantThread := range want {
		rel := c.Release(parked, false)
		if len(rel) != 1 || rel[0] != wantThread {
			t.Fatalf("step %d: release %v, want [%d]", step, rel, wantThread)
		}
		// Nothing more before the confirm.
		if rel2 := c.Release(parked, false); len(rel2) != 0 {
			t.Fatalf("step %d: premature release %v", step, rel2)
		}
		static := pts[c.m.order[step]].StaticID
		c.AfterStmt(info(wantThread, "n", static, 1, 1))
	}
	if rel := c.Release(parked, false); len(rel) != 0 {
		t.Fatal("release after completion")
	}
}

// threeWriterWorkload: three threads write a log position; the reader
// aborts only if the final value is from writer C AND writer A ran before B
// (value "CAB" pattern encoded in a string).
func threeWriterWorkload() (*rt.Workload, []int32) {
	b := ir.NewProgram("perm3")
	m := b.Func("main")
	m.Spawn("h1", "wA")
	m.Spawn("h2", "wB")
	m.Spawn("h3", "wC")
	m.Join("h1")
	m.Join("h2")
	m.Join("h3")
	m.Read("log", nil, "l")
	m.If(ir.Eq(ir.L("l"), ir.S("0ABC")), func(t *ir.BlockBuilder) {
		t.Abort("fatal write order")
	})
	mk := func(fn, tag string) {
		f := b.Func(fn)
		f.Sync("lk", nil, func(l *ir.BlockBuilder) {
			l.Read("log", nil, "cur")
			l.If(ir.IsNull(ir.L("cur")), func(t *ir.BlockBuilder) { t.Assign("cur", ir.S("0")) })
			l.Write("log", nil, ir.Cat(ir.L("cur"), ir.S(tag)))
		})
	}
	mk("wA", "A")
	mk("wB", "B")
	mk("wC", "C")
	p := b.MustBuild()
	// Points are the Sync statements: the request parks before lock
	// acquisition and the confirm fires after the whole critical section
	// (the rule-3 placement), so the three read-modify-writes serialize
	// exactly in the granted order.
	var ids []int32
	for _, fn := range []string{"wA", "wB", "wC"} {
		st := p.FindStmt(fn, func(st ir.Stmt) bool {
			_, ok := st.(*ir.Sync)
			return ok
		})
		ids = append(ids, int32(st.Meta().ID))
	}
	w := &rt.Workload{Name: "perm3", Program: p, Nodes: []rt.NodeSpec{
		{Name: "n1", Mains: []rt.MainSpec{{Fn: "main"}}},
	}}
	return w, ids
}

// TestExploreAllFindsTheOnePoisonOrder explores all six grant orders of
// three parties (paper §5.1) through the rt-side Controller: every order
// co-arrives, and exactly one fails.
func TestExploreAllFindsTheOnePoisonOrder(t *testing.T) {
	w, ids := threeWriterWorkload()
	points := []Point{
		{StaticID: ids[0], Instance: 1},
		{StaticID: ids[1], Instance: 1},
		{StaticID: ids[2], Instance: 1},
	}
	orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	attempts := explore(w, points, orders, Options{Seed: 4, MaxSteps: 50_000})
	failures := 0
	for _, at := range attempts {
		if !at.Arrived {
			t.Errorf("order %v: parties did not co-arrive (%s)", at.Order, at.Result.Summary())
			continue
		}
		if at.Result.Failed() {
			failures++
			// Only the A,B,C order produces "0ABC".
			if !(at.Order[0] == 0 && at.Order[1] == 1 && at.Order[2] == 2) {
				t.Errorf("unexpected failing order %v", at.Order)
			}
			if !strings.Contains(strings.ToLower(at.Result.Summary()), "abort") {
				t.Errorf("order %v: summary lacks the failure: %s", at.Order, at.Result.Summary())
			}
		}
	}
	if failures != 1 {
		t.Fatalf("%d failing orders, want exactly 1", failures)
	}
}

// blockedGrantWorkload: thread A's point is its own Sync on lk; thread B's
// point is a write inside the same Sync. B parks holding lk, so granting A
// first blocks A on the lock and the cluster quiesces: only a forced release
// of B lets the run finish.
func blockedGrantWorkload() (*rt.Workload, []Point) {
	b := ir.NewProgram("blockedgrant")
	m := b.Func("main")
	m.Spawn("h1", "tA")
	m.Spawn("h2", "tB")
	m.Join("h1")
	m.Join("h2")
	for _, fn := range []string{"tA", "tB"} {
		b.Func(fn).Sync("lk", nil, func(l *ir.BlockBuilder) {
			l.Write("x", nil, ir.S(fn))
		})
	}
	p := b.MustBuild()
	syncA := p.FindStmt("tA", func(st ir.Stmt) bool { _, ok := st.(*ir.Sync); return ok })
	writeB := p.FindStmt("tB", func(st ir.Stmt) bool { _, ok := st.(*ir.Write); return ok })
	w := &rt.Workload{Name: "blockedgrant", Program: p, Nodes: []rt.NodeSpec{
		{Name: "n1", Mains: []rt.MainSpec{{Fn: "main"}}},
	}}
	return w, []Point{
		{StaticID: int32(syncA.Meta().ID), Instance: 1},
		{StaticID: int32(writeB.Meta().ID), Instance: 1},
	}
}

// TestExploreAllForcesBlockedGrant covers the Controller's forced release:
// the grant order that blocks its grantee on a lock must still finish.
func TestExploreAllForcesBlockedGrant(t *testing.T) {
	w, points := blockedGrantWorkload()
	attempts := explore(w, points, [][]int{{0, 1}, {1, 0}}, Options{Seed: 1, MaxSteps: 10_000})
	for _, at := range attempts {
		if !at.Arrived {
			t.Errorf("order %v: parties did not co-arrive (%s)", at.Order, at.Result.Summary())
		}
		if at.Result.Hang {
			t.Errorf("order %v: %s", at.Order, at.Result.Summary())
		}
	}
	if at := attempts[0]; at.Order[0] != 0 || at.Forced == 0 {
		t.Errorf("order %v: no forced release (%s)", at.Order, at.Result.Summary())
	}
}
