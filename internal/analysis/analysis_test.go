package analysis

import (
	"sort"
	"testing"

	"dcatch/internal/detect"
	"dcatch/internal/ir"
	"dcatch/internal/trace"
)

func idOf(t *testing.T, p *ir.Program, fn string, pred func(ir.Stmt) bool) int32 {
	t.Helper()
	st := p.FindStmt(fn, pred)
	if st == nil {
		t.Fatalf("statement not found in %s", fn)
	}
	return int32(st.Meta().ID)
}

func isRead(v string) func(ir.Stmt) bool {
	return func(st ir.Stmt) bool {
		r, ok := st.(*ir.Read)
		return ok && r.Var == v
	}
}

func isWrite(v string) func(ir.Stmt) bool {
	return func(st ir.Stmt) bool {
		w, ok := st.(*ir.Write)
		return ok && w.Var == v
	}
}

func TestTraceScope(t *testing.T) {
	b := ir.NewProgram("scope")
	b.Func("main").Call("", "plain")
	b.Func("plain")
	r := b.RPC("handler")
	r.Call("", "helper")
	b.Func("helper").Call("", "deep")
	b.Func("deep")
	b.Event("onEvent")
	b.Msg("onMsg")
	sender := b.Func("sender")
	sender.Send(ir.S("x"), "onMsg")
	p := b.MustBuild()
	scope := New(p).TraceScope()
	for _, want := range []string{"handler", "helper", "deep", "onEvent", "onMsg", "sender"} {
		if !scope[want] {
			t.Errorf("scope missing %q", want)
		}
	}
	for _, not := range []string{"main", "plain"} {
		if scope[not] {
			t.Errorf("scope wrongly includes %q", not)
		}
	}
}

func TestFailureInstructionKinds(t *testing.T) {
	b := ir.NewProgram("fails")
	f := b.Func("f")
	f.Abort("x")                                                  // failure
	f.LogError("bad")                                             // failure
	f.LogFatal("worse")                                           // failure
	f.LogInfo("fine")                                             // not
	f.Throw("RuntimeException", "npe")                            // failure (uncatchable)
	f.Throw("IOException", "io")                                  // not (catchable, no failing catch)
	f.ZKMustDelete(ir.S("/x"))                                    // failure
	f.While(ir.L("go"), func(bb *ir.BlockBuilder) { bb.Break() }) // loop exit + break
	p := b.MustBuild()
	a := New(p)
	ids := a.FailureStmtIDs("f")
	// abort, error, fatal, runtime-throw, must-delete, while, break = 7
	if len(ids) != 7 {
		t.Fatalf("failure instruction count = %d (%v), want 7", len(ids), ids)
	}
}

func TestThrowWithFailingCatchIsFailure(t *testing.T) {
	b := ir.NewProgram("catch")
	f := b.Func("f")
	f.Try(func(bb *ir.BlockBuilder) {
		bb.Throw("Timeout", "slow") // becomes a failure: its catch aborts
	}, "Timeout", "", func(bb *ir.BlockBuilder) {
		bb.Abort("giving up")
	})
	f.Try(func(bb *ir.BlockBuilder) {
		bb.Throw("Timeout", "slow2") // NOT a failure: catch only warns
	}, "Timeout", "", func(bb *ir.BlockBuilder) {
		bb.LogWarn("retrying")
	})
	p := b.MustBuild()
	a := New(p)
	ids := a.FailureStmtIDs("f")
	// abort itself + the first throw = 2
	if len(ids) != 2 {
		t.Fatalf("failure IDs = %v, want 2 entries", ids)
	}
}

func TestIntraDataImpact(t *testing.T) {
	b := ir.NewProgram("intra")
	f := b.Func("f")
	f.Read("state", nil, "s")
	f.Assign("bad", ir.Eq(ir.L("s"), ir.S("KILLED")))
	f.If(ir.L("bad"), func(bb *ir.BlockBuilder) {
		bb.LogError("killed state observed")
	})
	f.Read("other", nil, "o") // no failure flow
	p := b.MustBuild()
	a := New(p)
	if !a.HasImpact(idOf(t, p, "f", isRead("state")), nil) {
		t.Fatal("data-dependent read has no impact")
	}
	if a.HasImpact(idOf(t, p, "f", isRead("other")), nil) {
		t.Fatal("unrelated read has impact")
	}
}

func TestControlImpact(t *testing.T) {
	b := ir.NewProgram("ctrl")
	f := b.Func("f")
	f.Read("flag", nil, "fl")
	f.If(ir.L("fl"), func(bb *ir.BlockBuilder) {
		bb.Print("about to fail")
		bb.Abort("boom") // control-dependent on fl
	})
	p := b.MustBuild()
	if !New(p).HasImpact(idOf(t, p, "f", isRead("flag")), nil) {
		t.Fatal("control-dependent failure not detected")
	}
}

func TestWriteImpactThroughLocalRead(t *testing.T) {
	b := ir.NewProgram("w")
	f := b.Func("f")
	f.Write("cnt", nil, ir.I(0))
	f.Read("cnt", nil, "c")
	f.If(ir.IsNull(ir.L("c")), func(bb *ir.BlockBuilder) {
		bb.Throw("RuntimeException", "null count")
	})
	g := b.Func("g")
	g.Write("metric", nil, ir.I(1)) // nothing reads it
	p := b.MustBuild()
	a := New(p)
	if !a.HasImpact(idOf(t, p, "f", isWrite("cnt")), nil) {
		t.Fatal("write feeding a failing read has no impact")
	}
	if a.HasImpact(idOf(t, p, "g", isWrite("metric")), nil) {
		t.Fatal("dead metric write has impact")
	}
}

func TestCalleeImpactViaArg(t *testing.T) {
	b := ir.NewProgram("callee")
	f := b.Func("f")
	f.Read("v", nil, "x")
	f.Call("", "check", ir.L("x"))
	chk := b.Func("check", "val")
	chk.If(ir.IsNull(ir.L("val")), func(bb *ir.BlockBuilder) {
		bb.Abort("null")
	})
	p := b.MustBuild()
	if !New(p).HasImpact(idOf(t, p, "f", isRead("v")), nil) {
		t.Fatal("callee impact via argument missed")
	}
}

func TestCallerImpactViaReturn(t *testing.T) {
	b := ir.NewProgram("caller")
	g := b.Func("getState")
	g.Read("state", nil, "s")
	g.Return(ir.L("s"))
	f := b.Func("f")
	f.Call("st", "getState")
	f.If(ir.IsNull(ir.L("st")), func(bb *ir.BlockBuilder) {
		bb.LogFatal("no state")
	})
	p := b.MustBuild()
	a := New(p)
	callSite := idOf(t, p, "f", func(st ir.Stmt) bool { _, ok := st.(*ir.Call); return ok })
	readID := idOf(t, p, "getState", isRead("state"))
	// With the callstack [callSite], the read's return value reaches f's
	// fatal log.
	if !a.HasImpact(readID, []int32{callSite}) {
		t.Fatal("caller impact via return value missed")
	}
	// Without a callstack there is no one-level caller to inspect.
	if a.HasImpact(readID, nil) {
		t.Fatal("impact invented without callstack")
	}
}

func TestDistributedImpactViaRPC(t *testing.T) {
	// Fig. 2: getTask's read returns to a remote caller whose loop exit
	// depends on it — an infinite-loop failure instruction remotely.
	b := ir.NewProgram("dist")
	g := b.RPC("getTask", "jid")
	g.Read("jMap", ir.L("jid"), "task")
	g.Return(ir.L("task"))
	nm := b.Func("nmMain")
	nm.Assign("got", ir.NullE())
	nm.While(ir.IsNull(ir.L("got")), func(bb *ir.BlockBuilder) {
		bb.RPC("got", ir.S("am"), "getTask", ir.S("j1"))
	})
	p := b.MustBuild()
	if !New(p).HasImpact(idOf(t, p, "getTask", isRead("jMap")), nil) {
		t.Fatal("distributed impact via RPC return missed")
	}
}

func TestMustZKOpIsImpactful(t *testing.T) {
	b := ir.NewProgram("zk")
	f := b.Func("f")
	f.ZKMustDelete(ir.S("/unassigned/r1"))
	p := b.MustBuild()
	mustDel := idOf(t, p, "f", func(st ir.Stmt) bool { _, ok := st.(*ir.ZKDelete); return ok })
	if !New(p).HasImpact(mustDel, nil) {
		t.Fatal("must-delete should be impactful by itself")
	}
}

func TestPruneReport(t *testing.T) {
	b := ir.NewProgram("prune")
	f := b.Func("f")
	f.Read("state", nil, "s")
	f.If(ir.IsNull(ir.L("s")), func(bb *ir.BlockBuilder) { bb.Abort("x") })
	g := b.Func("g")
	g.Write("state", nil, ir.S("ok"))
	h := b.Func("h")
	h.Write("metric", nil, ir.I(1))
	i := b.Func("i")
	i.Read("metric", nil, "m")
	p := b.MustBuild()
	a := New(p)

	tr := &trace.Trace{}
	mk := func(fn string, pred func(ir.Stmt) bool) int32 { return idOf(t, p, fn, pred) }
	rep := &detect.Report{Pairs: []detect.Pair{
		{AStatic: mk("f", isRead("state")), BStatic: mk("g", isWrite("state")), ARec: -1, BRec: -1},
		{AStatic: mk("h", isWrite("metric")), BStatic: mk("i", isRead("metric")), ARec: -1, BRec: -1},
	}}
	kept, pruned := a.Prune(rep, tr)
	if len(kept.Pairs) != 1 || pruned != 1 {
		t.Fatalf("kept %d pruned %d, want 1/1", len(kept.Pairs), pruned)
	}
	if kept.Pairs[0].AStatic != mk("f", isRead("state")) {
		t.Fatal("wrong pair survived")
	}
}

func TestLoopSyncCandidatesLocal(t *testing.T) {
	b := ir.NewProgram("lsync")
	f := b.Func("f")
	f.Assign("done", ir.B(false))
	f.While(ir.NotE(ir.L("done")), func(bb *ir.BlockBuilder) {
		bb.Read("flag", nil, "done")
	})
	p := b.MustBuild()
	cands := New(p).LoopSyncCandidates()
	loopID := idOf(t, p, "f", func(st ir.Stmt) bool { _, ok := st.(*ir.While); return ok })
	readID := idOf(t, p, "f", isRead("flag"))
	rs, ok := cands[loopID]
	if !ok || len(rs) != 1 || rs[0] != readID {
		t.Fatalf("local loop-sync candidates = %v, want {%d: [%d]}", cands, loopID, readID)
	}
}

func TestLoopSyncCandidatesRPC(t *testing.T) {
	b := ir.NewProgram("lsync2")
	g := b.RPC("getTask", "jid")
	g.Read("jMap", ir.L("jid"), "task")
	g.Return(ir.L("task"))
	f := b.Func("f")
	f.Assign("got", ir.NullE())
	f.While(ir.IsNull(ir.L("got")), func(bb *ir.BlockBuilder) {
		bb.RPC("got", ir.S("am"), "getTask", ir.S("j1"))
	})
	p := b.MustBuild()
	cands := New(p).LoopSyncCandidates()
	loopID := idOf(t, p, "f", func(st ir.Stmt) bool { _, ok := st.(*ir.While); return ok })
	readID := idOf(t, p, "getTask", isRead("jMap"))
	rs, ok := cands[loopID]
	if !ok || len(rs) != 1 || rs[0] != readID {
		t.Fatalf("rpc loop-sync candidates = %v, want {%d: [%d]}", cands, loopID, readID)
	}
	loops, reads := PullProbe(cands)
	if !loops[loopID] || !reads[readID] {
		t.Fatal("PullProbe conversion wrong")
	}
}

func TestLoopWithBreakCandidates(t *testing.T) {
	b := ir.NewProgram("brk")
	f := b.Func("f")
	f.While(ir.B(true), func(bb *ir.BlockBuilder) {
		bb.Read("ready", nil, "r")
		bb.If(ir.L("r"), func(bb2 *ir.BlockBuilder) { bb2.Break() })
	})
	p := b.MustBuild()
	cands := New(p).LoopSyncCandidates()
	loopID := idOf(t, p, "f", func(st ir.Stmt) bool { _, ok := st.(*ir.While); return ok })
	if len(cands[loopID]) != 1 {
		t.Fatalf("break-exit loop candidates = %v", cands)
	}
}

func TestUnknownStaticIsConservative(t *testing.T) {
	b := ir.NewProgram("u")
	b.Func("f").Print("x")
	a := New(b.MustBuild())
	if !a.HasImpact(9999, nil) {
		t.Fatal("unknown statement should be kept conservatively")
	}
}

func TestConfigTreatWarningsAsFailures(t *testing.T) {
	b := ir.NewProgram("cfgwarn")
	f := b.Func("f")
	f.Read("v", nil, "x")
	f.If(ir.IsNull(ir.L("x")), func(bb *ir.BlockBuilder) {
		bb.LogWarn("value missing") // only a failure under the wide config
	})
	p := b.MustBuild()
	readID := idOf(t, p, "f", isRead("v"))
	if New(p).HasImpact(readID, nil) {
		t.Fatal("warning counted as failure under the default config")
	}
	wide := NewWithConfig(p, Config{TreatWarningsAsFailures: true})
	if !wide.HasImpact(readID, nil) {
		t.Fatal("warning not counted under TreatWarningsAsFailures")
	}
}

func TestConfigIgnoreLoopExits(t *testing.T) {
	// The MR-3274 pattern: a read whose only impact is a remote poll
	// loop. Dropping loop exits from the failure set loses it.
	b := ir.NewProgram("cfgloop")
	g := b.RPC("getTask", "jid")
	g.Read("jMap", ir.L("jid"), "task")
	g.Return(ir.L("task"))
	nm := b.Func("nmMain")
	nm.Assign("got", ir.NullE())
	nm.While(ir.IsNull(ir.L("got")), func(bb *ir.BlockBuilder) {
		bb.RPC("got", ir.S("am"), "getTask", ir.S("j1"))
	})
	p := b.MustBuild()
	readID := idOf(t, p, "getTask", isRead("jMap"))
	if !New(p).HasImpact(readID, nil) {
		t.Fatal("loop-exit impact missing under default config")
	}
	narrow := NewWithConfig(p, Config{IgnoreLoopExits: true})
	if narrow.HasImpact(readID, nil) {
		t.Fatal("loop-exit impact survived IgnoreLoopExits")
	}
	// Sanity: the narrow config would prune MR-3274's root cause — the
	// false-negative trade-off the paper's §4.1 configurability implies.
}

func TestTraceScopeIncludesWatchHandlers(t *testing.T) {
	b := ir.NewProgram("scope2")
	m := b.Func("main")
	m.ZKWatch(ir.S("/x"), "onX")
	h := b.WatchHandler("onX")
	h.Call("", "helper")
	b.Func("helper").Write("x", nil, ir.I(1))
	p := b.MustBuild()
	scope := New(p).TraceScope()
	if !scope["onX"] || !scope["helper"] {
		t.Fatalf("watch handler or its callee missing from scope: %v", scope)
	}
	if scope["main"] {
		t.Fatal("main wrongly in scope")
	}
}

func TestCalleeHeapImpact(t *testing.T) {
	// A write whose failure impact lives in a one-level callee reading the
	// same heap variable (§4.2's heap-based callee analysis).
	b := ir.NewProgram("heapimp")
	f := b.Func("f")
	f.Write("state", nil, ir.S("x"))
	f.Call("", "verify")
	v := b.Func("verify")
	v.Read("state", nil, "s")
	v.If(ir.IsNull(ir.L("s")), func(bb *ir.BlockBuilder) { bb.Abort("no state") })
	p := b.MustBuild()
	if !New(p).HasImpact(idOf(t, p, "f", isWrite("state")), nil) {
		t.Fatal("callee heap impact missed")
	}
}

func TestCallerHeapImpact(t *testing.T) {
	// A write in a callee whose impact is a failure-dependent read of the
	// same variable in the caller, reached through the callstack.
	b := ir.NewProgram("heapimp2")
	f := b.Func("f")
	f.Call("", "update")
	f.Read("state", nil, "s")
	f.If(ir.IsNull(ir.L("s")), func(bb *ir.BlockBuilder) { bb.LogFatal("lost state") })
	u := b.Func("update")
	u.Write("state", nil, ir.S("v"))
	p := b.MustBuild()
	callSite := idOf(t, p, "f", func(st ir.Stmt) bool { _, ok := st.(*ir.Call); return ok })
	writeID := idOf(t, p, "update", isWrite("state"))
	if !New(p).HasImpact(writeID, []int32{callSite}) {
		t.Fatal("caller heap impact missed")
	}
}

// FailureStmtIDs returns the static IDs of fn's failure instructions
// (sorted).
func (a *Analysis) FailureStmtIDs(fn string) []int {
	fi := a.funcs[fn]
	if fi == nil {
		return nil
	}
	ids := make([]int, 0, len(fi.failures))
	for _, st := range fi.failures {
		ids = append(ids, st.Meta().ID)
	}
	sort.Ints(ids)
	return ids
}
