// mapreduce-hang reproduces the paper's running example (Figures 1 and 2):
// the Hadoop MapReduce bug MR-3274, where the AM's UnRegister handler
// removes a job from jMap concurrently with the container's getTask RPC
// reading it. DCatch predicts the bug from a correct run; the triggering
// module then makes the hang actually happen.
//
//	go run ./examples/mapreduce-hang
package main

import (
	"fmt"
	"log"

	"dcatch/internal/core"
	"dcatch/internal/rt"
	"dcatch/internal/subjects"
	"dcatch/internal/subjects/minimr"
	"dcatch/internal/trigger"
)

func main() {
	bench := minimr.BenchMR3274()
	p := bench.Workload.Program

	fmt.Println("== 1. a correct run (no failure manifests) ==")
	res0, err := rt.Run(bench.Workload, rt.Options{Seed: bench.Seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   %s\n", res0.Summary())

	fmt.Println("\n== 2. DCatch detection from that correct run ==")
	res, err := core.Detect(bench.Workload, core.Options{Seed: bench.Seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   %s\n", res.Summary())
	read := subjects.ReadOf(p, "AM.getTask", "jMap")
	remove := subjects.RemoveOf(p, "AM.unregisterTask", "jMap")
	if res.Final.HasStaticPair(read, remove) {
		fmt.Println("   predicted: getTask's jMap read races UnRegister's jMap.remove (Fig. 2)")
	}
	put := subjects.WriteOf(p, "AM.registerTask", "jMap")
	if !res.Final.HasStaticPair(put, read) && res.TA.HasStaticPair(put, read) {
		fmt.Println("   pruned:    Register's put vs getTask's read — benign thanks to the")
		fmt.Println("              retry loop, recognized as pull-based custom synchronization")
	}

	fmt.Println("\n== 3. triggering the buggy order: Cancel (#3) before Get Task (#2) ==")
	ctrl, err := trigger.NewController([]trigger.Point{
		{StaticID: remove, Instance: 1},
		{StaticID: read, Instance: 1},
	}, []int{0, 1}) // remove wins the race
	if err != nil {
		log.Fatal(err)
	}
	bad, err := rt.Run(bench.Workload, rt.Options{Seed: bench.Seed, MaxSteps: 60_000, Trigger: ctrl})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   %s\n", bad.Summary())
	if bad.Hang {
		fmt.Println("   the NM container retries getTask forever — the Fig. 1 hang (#4)")
	}

	fmt.Println("\n== 4. the benign order: Get Task before Cancel ==")
	ctrl2, err := trigger.NewController([]trigger.Point{
		{StaticID: read, Instance: 1},
		{StaticID: remove, Instance: 1},
	}, []int{0, 1}) // read wins
	if err != nil {
		log.Fatal(err)
	}
	good, err := rt.Run(bench.Workload, rt.Options{Seed: bench.Seed, MaxSteps: 200_000, Trigger: ctrl2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   %s\n", good.Summary())
}
