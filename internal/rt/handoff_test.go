package rt_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"dcatch/internal/ir"
	"dcatch/internal/rt"
	"dcatch/internal/subjects"
	"dcatch/internal/subjects/minica"
	"dcatch/internal/subjects/minihb"
	"dcatch/internal/subjects/minimr"
	"dcatch/internal/subjects/minizk"
)

// waitGoroutines fails t unless the goroutine count drops back to base. A
// thread goroutine that handed the baton on is still counted until it has
// returned, so the count is polled briefly.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	if n > base {
		t.Fatalf("%d goroutines after Run, %d before", n, base)
	}
}

// parkOnce parks the first execution of one statement and releases it when
// the cluster quiesces (forced) or after patience Release calls (timeout).
// With explode set, BeforeStmt panics at that statement instead.
type parkOnce struct {
	static   int32
	patience int
	explode  bool

	parked, waited, forced, timedOut int
}

func (c *parkOnce) BeforeStmt(info rt.TrigInfo) bool {
	if info.StaticID != c.static || c.parked > 0 {
		return false
	}
	if c.explode {
		panic("controller exploded")
	}
	c.parked++
	return true
}

func (c *parkOnce) AfterStmt(rt.TrigInfo) {}

func (c *parkOnce) Release(parked []int32, quiesced bool) []int32 {
	if quiesced {
		c.forced++
		return parked
	}
	if c.waited++; c.patience > 0 && c.waited > c.patience {
		c.timedOut++
		return parked
	}
	return nil
}

// printID returns the static ID of fn's Print statement with message msg.
func printID(p *ir.Program, fn, msg string) int32 {
	st := p.FindStmt(fn, func(st ir.Stmt) bool {
		pr, ok := st.(*ir.Print)
		return ok && pr.Msg == msg
	})
	return int32(st.Meta().ID)
}

// TestRunReleasesGoroutines checks that no thread goroutine outlives Run,
// whatever ends the run. Every node owns at least its watch-dispatcher
// thread, which is still parked when the run ends, so each case has a
// parked daemon thread for teardown to unwind.
func TestRunReleasesGoroutines(t *testing.T) {
	one := func(p *ir.Program) *rt.Workload {
		return &rt.Workload{Name: p.Name, Program: p, Nodes: []rt.NodeSpec{
			{Name: "n1", Mains: []rt.MainSpec{{Fn: "main"}}, Queues: []rt.QueueSpec{{Name: "q", Consumers: 2}}, RPCWorkers: 1},
		}}
	}

	b := ir.NewProgram("clean")
	b.Func("main").Print("hello")
	clean := one(b.MustBuild())

	b = ir.NewProgram("deadlock")
	m := b.Func("main")
	m.Spawn("h1", "w1")
	m.Spawn("h2", "w2")
	m.Join("h1")
	m.Join("h2")
	b.Func("w1").Sync("A", nil, func(bb *ir.BlockBuilder) {
		bb.Sleep(5)
		bb.Sync("B", nil, func(bb2 *ir.BlockBuilder) { bb2.Print("w1") })
	})
	b.Func("w2").Sync("B", nil, func(bb *ir.BlockBuilder) {
		bb.Sleep(5)
		bb.Sync("A", nil, func(bb2 *ir.BlockBuilder) { bb2.Print("w2") })
	})
	deadlock := one(b.MustBuild())

	b = ir.NewProgram("spin")
	m = b.Func("main")
	m.Spawn("h", "sleeper")
	m.Assign("go", ir.B(true))
	m.While(ir.L("go"), func(bb *ir.BlockBuilder) { bb.Read("never", nil, "x") })
	b.Func("sleeper").Sleep(1_000_000)
	spin := one(b.MustBuild())

	b = ir.NewProgram("kill")
	m = b.Func("main")
	m.Send(ir.S("victim"), "onMsg")
	m.KillNode(ir.S("victim"))
	m.Print("killer done")
	b.Msg("onMsg").Print("victim handled msg")
	b.Func("victimMain").Sleep(50)
	kill := &rt.Workload{Name: "kill", Program: b.MustBuild(), Nodes: []rt.NodeSpec{
		{Name: "killer", Mains: []rt.MainSpec{{Fn: "main"}}},
		{Name: "victim", NetWorkers: 2, Mains: []rt.MainSpec{{Fn: "victimMain"}}},
	}}

	// gated parks main at its "gate" print while a worker thread counts
	// to 200: the controller releases it on patience, or — once the
	// worker is done and nothing else can run — because the cluster
	// quiesced.
	b = ir.NewProgram("gated")
	m = b.Func("main")
	m.Spawn("h", "count")
	m.Print("gate")
	m.Join("h")
	c := b.Func("count")
	c.Assign("i", ir.I(0))
	c.While(ir.Lt(ir.L("i"), ir.I(200)), func(bb *ir.BlockBuilder) { bb.Assign("i", ir.Add(ir.L("i"), ir.I(1))) })
	gated := one(b.MustBuild())
	gate := printID(gated.Program, "main", "gate")

	cases := []struct {
		name  string
		w     *rt.Workload
		opts  rt.Options
		check func(res *rt.Result, err error, ctrl *parkOnce) bool
	}{
		{"completed", clean, rt.Options{Seed: 1}, func(res *rt.Result, err error, _ *parkOnce) bool {
			return err == nil && res.Completed
		}},
		{"deadlock", deadlock, rt.Options{Seed: 2}, func(res *rt.Result, err error, _ *parkOnce) bool {
			return err == nil && res.Hang && strings.HasPrefix(res.HangInfo, "deadlock")
		}},
		{"step-budget", spin, rt.Options{Seed: 1, MaxSteps: 500}, func(res *rt.Result, err error, _ *parkOnce) bool {
			return err == nil && res.Hang && strings.HasPrefix(res.HangInfo, "step budget")
		}},
		{"kill-node", kill, rt.Options{Seed: 1}, func(res *rt.Result, err error, _ *parkOnce) bool {
			return err == nil && res.Completed && strings.Contains(strings.Join(res.LogLines, "\n"), "victim KILLED")
		}},
		{"trigger-forced", gated, rt.Options{Seed: 1, Trigger: &parkOnce{static: gate}}, func(res *rt.Result, err error, ctrl *parkOnce) bool {
			return err == nil && res.Completed && ctrl.forced == 1 && ctrl.timedOut == 0
		}},
		{"patience", gated, rt.Options{Seed: 1, Trigger: &parkOnce{static: gate, patience: 20}}, func(res *rt.Result, err error, ctrl *parkOnce) bool {
			return err == nil && res.Completed && ctrl.timedOut == 1 && ctrl.forced == 0
		}},
		{"interpreter-panic", gated, rt.Options{Seed: 1, Trigger: &parkOnce{static: gate, explode: true}}, func(res *rt.Result, err error, _ *parkOnce) bool {
			return err != nil && strings.Contains(err.Error(), "internal panic") && strings.Contains(err.Error(), "controller exploded")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctrl, _ := tc.opts.Trigger.(*parkOnce)
			base := runtime.NumGoroutine()
			res, err := rt.Run(tc.w, tc.opts)
			if !tc.check(res, err, ctrl) {
				summary := "<nil>"
				if res != nil {
					summary = res.Summary()
				}
				t.Fatalf("unexpected outcome: err=%v result=%s ctrl=%+v", err, summary, ctrl)
			}
			waitGoroutines(t, base)
		})
	}
}

// recorder is a trigger controller that never parks anyone and records
// every BeforeStmt call.
type recorder struct {
	infos  []rt.TrigInfo
	afters int
}

func (r *recorder) BeforeStmt(info rt.TrigInfo) bool { r.infos = append(r.infos, info); return false }
func (r *recorder) AfterStmt(rt.TrigInfo)            { r.afters++ }
func (r *recorder) Release([]int32, bool) []int32    { return nil }

// TestTrigInfoCounters checks the runtime's dynamic-instance counters on the
// seven subject workloads: every TrigInfo's Seq, Instance and NodeSeq equal a
// brute-force count over the calls recorded so far, per (thread, statement),
// per statement and per (node, statement). A controller that parks nobody
// must not move the schedule either.
func TestTrigInfoCounters(t *testing.T) {
	type threadKey struct{ thread, static int32 }
	type nodeKey struct {
		node   string
		static int32
	}
	var distinctNode, distinctThread bool
	for _, b := range []*subjects.Benchmark{
		minica.BenchCA1011(), minihb.BenchHB4539(), minihb.BenchHB4729(),
		minimr.BenchMR3274(), minimr.BenchMR4637(), minizk.BenchZK1144(), minizk.BenchZK1270(),
	} {
		plain, err := rt.Run(b.Workload, rt.Options{Seed: b.Seed, MaxSteps: b.MaxSteps})
		if err != nil {
			t.Fatal(err)
		}
		rec := &recorder{}
		res, err := rt.Run(b.Workload, rt.Options{Seed: b.Seed, MaxSteps: b.MaxSteps, Trigger: rec})
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary() != plain.Summary() {
			t.Errorf("%s: a controller that parks nobody moved the run: %s, want %s", b.ID, res.Summary(), plain.Summary())
		}
		if len(rec.infos) == 0 || rec.afters != 0 {
			t.Fatalf("%s: %d BeforeStmt and %d AfterStmt calls", b.ID, len(rec.infos), rec.afters)
		}
		seq, inst, node := map[threadKey]int{}, map[int32]int{}, map[nodeKey]int{}
		for i, in := range rec.infos {
			seq[threadKey{in.Thread, in.StaticID}]++
			inst[in.StaticID]++
			node[nodeKey{in.Node, in.StaticID}]++
			want := [3]int{seq[threadKey{in.Thread, in.StaticID}], inst[in.StaticID], node[nodeKey{in.Node, in.StaticID}]}
			if got := [3]int{in.Seq, in.Instance, in.NodeSeq}; got != want {
				t.Fatalf("%s: call %d (%+v): Seq/Instance/NodeSeq = %v, want %v", b.ID, i, in, got, want)
			}
			distinctNode = distinctNode || in.NodeSeq != in.Instance
			distinctThread = distinctThread || in.Seq != in.NodeSeq
		}
	}
	if !distinctNode || !distinctThread {
		t.Errorf("subjects never tell the counters apart: NodeSeq≠Instance seen %v, Seq≠NodeSeq seen %v", distinctNode, distinctThread)
	}
}
