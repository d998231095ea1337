// hbase-master-crash walks the paper's Figure 3 and bug HB-4729 on the
// mini-HBase subject:
//
//  1. It prints the happens-before chain that orders the master's
//     regionsToOpen write (W) before the watch handler's read (R) — the
//     eight-step chain through thread creation, RPC, event queue, and
//     ZooKeeper push notification that Fig. 3 illustrates.
//
//  2. It shows DCatch detecting the znode delete/delete race of HB-4729
//     and the triggering module crashing the HMaster.
//
//     go run ./examples/hbase-master-crash
package main

import (
	"fmt"
	"log"

	"dcatch/internal/core"
	"dcatch/internal/rt"
	"dcatch/internal/subjects"
	"dcatch/internal/subjects/minihb"
	"dcatch/internal/trace"
	"dcatch/internal/trigger"
)

func main() {
	bench := minihb.BenchHB4729()
	p := bench.Workload.Program

	res, err := core.Detect(bench.Workload, core.Options{Seed: bench.Seed})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Figure 3: the HB chain ordering W before R ==")
	w := subjects.WriteOf(p, "HM.assignRegion", "regionsToOpen")
	r := subjects.ReadOf(p, "HM.onRegionZK", "regionsToOpen")
	wi, ri := -1, -1
	for i := range res.Trace.Recs {
		rec := &res.Trace.Recs[i]
		if wi < 0 && rec.StaticID == w && rec.Kind == trace.KMemWrite {
			wi = i
		}
		if ri < 0 && rec.StaticID == r && rec.Kind == trace.KMemRead {
			ri = i
		}
	}
	path := res.Graph.Path(wi, ri)
	if path == nil {
		log.Fatal("W does not happen before R — the chain broke")
	}
	for step, v := range path {
		rec := &res.Trace.Recs[v]
		pos := "(runtime)"
		if rec.StaticID >= 0 {
			pos = p.Pos(int(rec.StaticID))
		}
		fmt.Printf("  %2d. %-12s on %-7s %s\n", step+1, rec.Kind, rec.Node, pos)
	}
	fmt.Printf("  => W happens before R through %d causal steps; DCatch does NOT report it.\n", len(path))

	fmt.Println("\n== HB-4729: enable table & expire server ==")
	fmt.Println(res.Summary())
	fmt.Print(res.Final.Format(p))

	fmt.Println("\n== triggering: expiry delete wins over enable's must-delete ==")
	ctrl, err := trigger.NewController([]trigger.Point{
		{StaticID: subjects.ZKDeleteOf(p, "HM.expireServer"), Instance: 1},
		{StaticID: subjects.ZKDeleteOf(p, "HM.doEnable"), Instance: 1},
	}, []int{0, 1})
	if err != nil {
		log.Fatal(err)
	}
	bad, err := rt.Run(bench.Workload, rt.Options{Seed: bench.Seed, MaxSteps: 150_000, Trigger: ctrl})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   %s\n", bad.Summary())
	for _, l := range bad.LogLines {
		fmt.Printf("   log: %s\n", l)
	}
}
