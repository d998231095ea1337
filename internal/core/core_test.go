package core

import (
	"errors"
	"strings"
	"testing"

	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/ir"
	"dcatch/internal/obs"
	"dcatch/internal/rt"
	"dcatch/internal/subjects/minizk"
	"dcatch/internal/trigger"
)

// toy builds a small two-node workload with one impactful race (read/write
// on "status" with a failure-instruction dependence), one no-impact race
// (counter), and one pull-synchronized pair (poll loop over an RPC).
func toy(t *testing.T) *rt.Workload {
	t.Helper()
	b := ir.NewProgram("toy")
	cm := b.Func("client.main")
	// Local bookkeeping outside the selective-tracing scope (client.main
	// performs no socket operations and handles nothing).
	cm.Write("clientLog", nil, ir.S("starting"))
	cm.RPC("r", ir.S("srv"), "setStatus", ir.S("ready"))
	cm.Assign("got", ir.NullE())
	cm.While(ir.IsNull(ir.L("got")), func(bb *ir.BlockBuilder) {
		bb.RPC("got", ir.S("srv"), "getItem")
		bb.Sleep(2)
	})
	cm.Print("done")

	ss := b.RPC("setStatus", "v")
	ss.Write("status", nil, ir.L("v"))
	ss.Read("counter", nil, "c")
	ss.If(ir.IsNull(ir.L("c")), func(bb *ir.BlockBuilder) { bb.Assign("c", ir.I(0)) })
	ss.Write("counter", nil, ir.Add(ir.L("c"), ir.I(1)))
	ss.Return(ir.B(true))

	gi := b.RPC("getItem")
	gi.Read("item", nil, "it")
	gi.Return(ir.L("it"))

	// A server-side daemon-ish thread: races with setStatus on "status"
	// (impactful: controls an abort) and on "counter" (no impact).
	mon := b.Func("srv.monitor")
	mon.Read("status", nil, "st")
	mon.If(ir.Eq(ir.L("st"), ir.S("corrupt")), func(bb *ir.BlockBuilder) {
		bb.Abort("corrupt status")
	})
	mon.Read("counter", nil, "c2")
	mon.Sleep(15)
	mon.Write("item", nil, ir.S("payload"))
	// Touch a socket so the monitor falls into the tracing scope.
	mon.Send(ir.S("client"), "noopMsg")

	b.Msg("noopMsg")

	w := &rt.Workload{
		Name:    "toy",
		Program: b.MustBuild(),
		Nodes: []rt.NodeSpec{
			{Name: "client", NetWorkers: 1, Mains: []rt.MainSpec{{Fn: "client.main"}}},
			{Name: "srv", RPCWorkers: 2, NetWorkers: 1, Mains: []rt.MainSpec{{Fn: "srv.monitor"}}},
		},
	}
	return w
}

func TestDetectPipelineStages(t *testing.T) {
	res, err := Detect(toy(t), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.OOM {
		t.Fatal("unexpected OOM")
	}
	if res.TA == nil || res.SP == nil || res.Final == nil {
		t.Fatal("missing stage reports")
	}
	// Monotone shrinking across stages.
	if !(res.Stats.TACallstack >= res.Stats.SPCallstack && res.Stats.SPCallstack >= res.Stats.LPCallstack) {
		t.Fatalf("stages not monotone: %s", res.Summary())
	}
	// The impactful status race survives; the counter race is pruned.
	p := res.Workload.Program
	statusW := p.FindStmt("setStatus", func(st ir.Stmt) bool {
		w, ok := st.(*ir.Write)
		return ok && w.Var == "status"
	}).Meta().ID
	statusR := p.FindStmt("srv.monitor", func(st ir.Stmt) bool {
		r, ok := st.(*ir.Read)
		return ok && r.Var == "status"
	}).Meta().ID
	if !res.Final.HasStaticPair(int32(statusW), int32(statusR)) {
		t.Fatalf("impactful race missing:\n%s", res.Final.Format(p))
	}
	counterW := p.FindStmt("setStatus", func(st ir.Stmt) bool {
		w, ok := st.(*ir.Write)
		return ok && w.Var == "counter"
	}).Meta().ID
	counterR := p.FindStmt("srv.monitor", func(st ir.Stmt) bool {
		r, ok := st.(*ir.Read)
		return ok && r.Var == "counter"
	}).Meta().ID
	if !res.TA.HasStaticPair(int32(counterW), int32(counterR)) {
		t.Fatal("counter race missing from TA")
	}
	if res.Final.HasStaticPair(int32(counterW), int32(counterR)) {
		t.Fatal("no-impact counter race not pruned")
	}
	// The poll loop over getItem is pull synchronization: item write vs
	// getItem read must be suppressed in the final report.
	itemW := p.FindStmt("srv.monitor", func(st ir.Stmt) bool {
		w, ok := st.(*ir.Write)
		return ok && w.Var == "item"
	}).Meta().ID
	itemR := p.FindStmt("getItem", func(st ir.Stmt) bool {
		_, ok := st.(*ir.Read)
		return ok
	}).Meta().ID
	if res.Final.HasStaticPair(int32(itemW), int32(itemR)) {
		t.Fatal("pull-sync pair not suppressed")
	}
	if res.Stats.PullPairs == 0 {
		t.Fatal("no pull pairs recorded")
	}
	if res.Stats.TraceRecords == 0 || res.Stats.TraceBytes == 0 || res.Stats.HBVertices == 0 {
		t.Fatalf("stats not populated: %+v", res.Stats)
	}
}

func TestOOMPath(t *testing.T) {
	res, err := Detect(toy(t), Options{Seed: 3, HB: hb.Config{MemBudget: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OOM {
		t.Fatal("tiny budget did not OOM")
	}
	if res.TA != nil {
		t.Fatal("OOM result has reports")
	}
	if !strings.Contains(res.Summary(), "OUT OF MEMORY") {
		t.Fatalf("summary lacks OOM: %s", res.Summary())
	}
}

func TestValidateAllClassifies(t *testing.T) {
	res, err := Detect(toy(t), Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	vals := ValidateAll(res, TriggerOptions{MaxSteps: 100_000})
	if len(vals) != len(res.Final.Pairs) {
		t.Fatalf("validated %d of %d pairs", len(vals), len(res.Final.Pairs))
	}
	// The status race is benign (monitor never sees "corrupt").
	for _, v := range vals {
		if strings.Contains(v.Pair.Obj, "status") && v.Verdict != trigger.VerdictBenign {
			t.Errorf("status race verdict %s, want benign: %s", v.Verdict, v.Summary())
		}
	}
	if res.Seed() != 3 {
		t.Fatalf("Seed() = %d", res.Seed())
	}
}

func TestFullTraceBiggerThanSelective(t *testing.T) {
	w := toy(t)
	sel, err := Detect(w, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Detect(w, Options{Seed: 3, FullTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.TraceRecords <= sel.Stats.TraceRecords {
		t.Fatalf("full tracing not bigger: %d <= %d",
			full.Stats.TraceRecords, sel.Stats.TraceRecords)
	}
}

func TestChunkedFallback(t *testing.T) {
	w := toy(t)
	// A budget too small for the full closure, with chunking enabled:
	// the pipeline must still produce reports instead of OOM.
	rec := obs.New()
	res, err := Detect(w, Options{Seed: 3, HB: hb.Config{MemBudget: 150}, ChunkSize: 10, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.OOM {
		t.Fatal("chunked fallback did not engage")
	}
	if !res.Chunked {
		t.Fatal("Chunked flag not set")
	}
	if res.Final == nil || res.Stats.TACallstack == 0 {
		t.Fatalf("chunked pipeline produced nothing: %s", res.Summary())
	}
	// Static pruning runs once, after the windows, and the pruned report is
	// the final one (the loop-sync stage needs the full graph): the manifest
	// carries one core.static_pruning span and the whole candidate funnel.
	spans := map[string]int{}
	for _, sd := range rec.Spans(1) {
		spans[sd.Name]++
	}
	if spans["core.static_pruning"] != 1 || spans["core.loop_sync_analysis"] != 0 {
		t.Errorf("stage spans = %v, want one core.static_pruning and no core.loop_sync_analysis", spans)
	}
	if res.Final != res.SP || res.Stats.SPCallstack >= res.Stats.TACallstack || res.Stats.LPCallstack != res.Stats.SPCallstack {
		t.Errorf("funnel TA %d -> SP %d -> final %d, want pruning to bite and final == SP",
			res.Stats.TACallstack, res.Stats.SPCallstack, res.Stats.LPCallstack)
	}
	ctr := rec.Counters()
	for stage, want := range map[string][2]int{
		"ta":    {res.Stats.TAStatic, res.Stats.TACallstack},
		"sp":    {res.Stats.SPStatic, res.Stats.SPCallstack},
		"final": {res.Stats.LPStatic, res.Stats.LPCallstack},
	} {
		if got := [2]int{int(ctr["core.candidates."+stage+".static"]), int(ctr["core.candidates."+stage+".callstack"])}; got != want {
			t.Errorf("core.candidates.%s.* = %v, want %v", stage, got, want)
		}
	}
	if res.Stats.HBMemBytes > 150 {
		t.Fatalf("peak window memory %d exceeds budget", res.Stats.HBMemBytes)
	}
	// The close-together impactful race must still be found.
	p := w.Program
	statusW := p.FindStmt("setStatus", func(st ir.Stmt) bool {
		wr, ok := st.(*ir.Write)
		return ok && wr.Var == "status"
	}).Meta().ID
	statusR := p.FindStmt("srv.monitor", func(st ir.Stmt) bool {
		r, ok := st.(*ir.Read)
		return ok && r.Var == "status"
	}).Meta().ID
	if !res.TA.HasStaticPair(int32(statusW), int32(statusR)) {
		t.Fatalf("chunked TA missed the status race:\n%s", res.TA.Format(p))
	}
}

func TestIntersectKeepsCollidingStacksDistinct(t *testing.T) {
	// Regression: intersect used to key pairs on AStack+"||"+BStack, which
	// folded distinct pairs whose joined renderings coincide. Only the
	// second pair below appears in both reports; the first must not ride
	// along on a collided key.
	collideA := detect.Pair{Obj: "n/x", AStack: "x||y", BStack: "z"}
	collideB := detect.Pair{Obj: "n/x", AStack: "x", BStack: "y||z"}
	a := &detect.Report{Pairs: []detect.Pair{collideA, collideB}}
	b := &detect.Report{Pairs: []detect.Pair{collideB}}
	got := intersect(a, b)
	if len(got.Pairs) != 1 {
		t.Fatalf("intersect kept %d pairs, want 1: %+v", len(got.Pairs), got.Pairs)
	}
	if got.Pairs[0].AStack != "x" || got.Pairs[0].BStack != "y||z" {
		t.Fatalf("intersect kept the wrong pair: %+v", got.Pairs[0])
	}
}

// TestDetectRefusesHungRun pins the correct-run premise (§1.3): ZK-1144's
// schedule at seed 28 runs out its 150 000-step budget, so Detect refuses
// it with an *incorrectRunError naming the run's summary instead of
// analyzing the hung run's trace. The registered seed's run is correct.
func TestDetectRefusesHungRun(t *testing.T) {
	b := minizk.BenchZK1144()
	res, err := Detect(b.Workload, Options{Seed: 28, MaxSteps: b.MaxSteps})
	var bad *incorrectRunError
	if !errors.As(err, &bad) || res != nil {
		t.Fatalf("seed 28: Detect = (%v, %v), want an incorrect-run refusal", res, err)
	}
	if bad.run != "baseline" || !bad.res.Hang || !strings.Contains(err.Error(), bad.res.Summary()) {
		t.Fatalf("seed 28: refusal %q (run %s, hang %v) does not name the hung run's summary", err, bad.run, bad.res.Hang)
	}
	if _, err := Detect(b.Workload, Options{Seed: b.Seed, MaxSteps: b.MaxSteps}); err != nil {
		t.Fatalf("registered seed %d: %v", b.Seed, err)
	}
}
