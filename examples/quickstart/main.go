// Quickstart: express a tiny two-node system in the DCatch IR, run the full
// detection pipeline on one correct execution, and validate the report with
// the triggering module.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"dcatch/internal/core"
	"dcatch/internal/ir"
	"dcatch/internal/rt"
)

func main() {
	// A coordinator RPCs a worker to initialize a config entry, while a
	// janitor thread on the worker deletes stale config concurrently —
	// an order violation: if the delete wins, a later lookup crashes. In
	// the monitored run the janitor wakes after the lookup, so that run is
	// correct (detection refuses a failing one) and the bug is latent.
	b := ir.NewProgram("quickstart")

	cm := b.Func("coordinator.main")
	cm.RPC("", ir.S("worker"), "putConfig", ir.S("timeout"), ir.S("30s"))
	cm.Sleep(20)
	cm.RPC("v", ir.S("worker"), "getConfig", ir.S("timeout"))
	cm.Print("coordinator got:", ir.L("v"))

	put := b.RPC("putConfig", "k", "v")
	put.Write("config", ir.L("k"), ir.L("v"))
	put.Return(ir.B(true))

	get := b.RPC("getConfig", "k")
	get.Read("config", ir.L("k"), "val")
	get.If(ir.IsNull(ir.L("val")), func(t *ir.BlockBuilder) {
		t.Throw("RuntimeException", "config entry missing")
	})
	get.Return(ir.L("val"))

	jan := b.Func("worker.janitor")
	jan.Sleep(40)
	jan.Remove("config", ir.S("timeout")) // races with putConfig/getConfig
	jan.Send(ir.S("coordinator"), "janitorDone")

	b.Msg("janitorDone")

	w := &rt.Workload{
		Name:    "quickstart",
		Program: b.MustBuild(),
		Nodes: []rt.NodeSpec{
			{Name: "coordinator", NetWorkers: 1, Mains: []rt.MainSpec{{Fn: "coordinator.main"}}},
			{Name: "worker", RPCWorkers: 2, Mains: []rt.MainSpec{{Fn: "worker.janitor"}}},
		},
	}

	fmt.Println("== cluster structure ==")
	fmt.Print(w.StructureDump())

	// Detect: trace one correct run, build the HB graph, report
	// concurrent conflicting accesses, prune no-impact candidates.
	res, err := core.Detect(w, core.Options{Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== detection ==")
	fmt.Println(res.Summary())
	fmt.Print(res.Final.Format(w.Program))

	// Trigger: explore both orders of every report.
	fmt.Println("\n== triggering ==")
	for _, v := range core.ValidateAll(res, core.TriggerOptions{MaxSteps: 100_000}) {
		fmt.Printf("%s\n  -> %s\n", v.Pair.Describe(w.Program), v.Summary())
	}
}
