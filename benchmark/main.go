// Command benchmark is the repository's one performance ledger: seven
// workloads driven through the product's public functions and HTTP API, six
// end-to-end metrics plus a failure count from an untraced run, and per-layer
// timings from a separate traced run that times the calls into each layer
// from this side of the call. README.md describes the workloads, the metrics
// and how they interact; ../BENCHMARK.json names them for the driver.
//
//	go run -C benchmark .                        # every workload, untraced then traced
//	go run -C benchmark . -workload served -trace 0 -seconds 10
//	go run -C benchmark . -runs 10 -trace 0 -out a.json
//	go run -C benchmark . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// ledgerVersion is bumped when the -out file's shape changes.
const ledgerVersion = 1

// environment is the host and build the numbers were taken on.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs"`
	Seconds    float64 `json:"seconds"`
	// Jobs is each workload's fixed job count, used when Seconds is 0.
	Jobs map[string]int `json:"jobs"`
}

// ledger is the -out file: every run made, with the host they ran on.
type ledger struct {
	Version int         `json:"ledger_version"`
	Env     environment `json:"env"`
	Runs    []*result   `json:"runs"`
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

func gitCommit() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func currentEnv(seed int64, runs int, sz sizing) environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUModel: cpuModel(), Commit: gitCommit(),
		Seed: seed, Runs: runs, Seconds: sz.seconds, Jobs: map[string]int{},
	}
	for _, w := range workloads {
		env.Jobs[w.name] = w.jobs
		if sz.jobs > 0 {
			env.Jobs[w.name] = sz.jobs
		}
	}
	return env
}

// defsFor returns the metrics a run of the given kind reports.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printResult prints every metric of a run by name, with its unit and the
// number of jobs behind it.
func printResult(r *result) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	share := float64(r.Failed) / float64(max(r.Attempted, 1))
	fmt.Printf("== %s (%s, seed %d): %d jobs, %d attempted, %d failed, failed_share %.4f, golden: %s\n",
		r.Workload, kind, r.Seed, r.Jobs, r.Attempted, r.Failed, share, r.Golden)
	for _, f := range r.Failures {
		fmt.Printf("   FAILED %s\n", f)
	}
	for _, d := range defsFor(r.Traced) {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Printf("   %-32s %16.4f %-6s n=%d\n", d.Name, v, d.Unit, r.Jobs)
		}
	}
	if len(r.SelfMs) > 0 {
		fmt.Printf("   self time by span (ms, whole run):")
		for _, name := range slices.Sorted(maps.Keys(r.SelfMs)) {
			fmt.Printf(" %s=%.1f", name, r.SelfMs[name])
		}
		fmt.Println()
	}
}

// contractLine renders a run the way the driver reads it: every metric of
// the run's kind, zero where the workload does not exercise the layer.
func contractLine(r *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range defsFor(r.Traced) {
		out.Metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	buf, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	return string(buf)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func main() {
	name := flag.String("workload", "", "run only this workload (default: all seven)")
	seed := flag.Int64("seed", 1, "seed of every input generator")
	seconds := flag.Float64("seconds", 0, "measure each workload for this long; 0 = its fixed job count")
	traceMode := flag.String("trace", "", "0 = untraced end-to-end run, 1 = traced per-layer run, empty = both")
	jobs := flag.Int("jobs", 0, "override every workload's fixed job count")
	runs := flag.Int("runs", 1, "runs per workload, on seeds seed..seed+runs-1")
	outPath := flag.String("out", "", "write every run and the env block to this JSON file")
	doCompare := flag.Bool("compare", false, "compare two -out files: -compare a.json b.json")
	updateGolden := flag.String("update-golden", "", "write the seed-1 references observed by this run to this file")
	flag.Parse()

	if *doCompare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two ledger files"))
		}
		worse, err := compare(flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	var modes []bool
	switch *traceMode {
	case "":
		modes = []bool{false, true}
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	default:
		fatal(fmt.Errorf("-trace must be 0 or 1, got %q", *traceMode))
	}
	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{*w}
	}
	sz := sizing{seconds: *seconds, jobs: *jobs}

	led := ledger{Version: ledgerVersion, Env: currentEnv(*seed, *runs, sz)}
	failed := false
	for i := range selected {
		w := &selected[i]
		for _, traced := range modes {
			run := measure
			if traced {
				run = measureTraced
			}
			for r := 0; r < *runs; r++ {
				res, err := run(w, fullProfile, *seed+int64(r), sz)
				if err != nil {
					fatal(err)
				}
				printResult(res)
				failed = failed || res.Failed > 0
				led.Runs = append(led.Runs, res)
			}
		}
	}
	if *updateGolden != "" {
		if err := writeGolden(*updateGolden, led.Runs); err != nil {
			fatal(err)
		}
	}
	if *outPath != "" {
		buf, err := json.MarshalIndent(led, "", " ")
		if err == nil {
			err = os.WriteFile(*outPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if *name != "" && len(modes) == 1 && *runs == 1 {
		fmt.Println(contractLine(led.Runs[0]))
	}
	if failed {
		os.Exit(1)
	}
}
