package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// sizing says how long an untraced run measures: for seconds when positive
// (never fewer than the workload's floor of jobs), else a fixed job count —
// the workload's own, or jobs when set. A traced run always makes three
// rounds (jobs/batch rounds when jobs is set).
type sizing struct {
	seconds float64
	jobs    int
}

// result is one run of one workload.
type result struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Traced    bool      `json:"traced"`
	Jobs      int       `json:"jobs"` // measured jobs, the sample count of every job metric
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	Golden    string    `json:"golden"` // "match", "absent" or "mismatch"
	Metrics   metricSet `json:"metrics"`
	// SelfMs is each span name's self time over a traced run.
	SelfMs map[string]float64 `json:"self_ms,omitempty"`

	observed map[int]goldenReport // per-job report references, for -update-golden
}

// checker compares every job's report with its references.
type checker struct {
	w    *workload
	p    profile
	seed int64
	inst *instance
	res  *result

	warm   string // the warm-up job's report
	golden bool   // some job had a committed reference

	// The last report hashed and its reference: most workloads render the
	// same megabytes in every job.
	lastReport string
	lastRef    goldenReport
}

func (c *checker) fail(j int, format string, args ...any) {
	c.res.Failed++
	if len(c.res.Failures) < 5 {
		c.res.Failures = append(c.res.Failures, fmt.Sprintf("job %d: ", j)+fmt.Sprintf(format, args...))
	}
}

// check counts job j and, when it failed or its report differs from a
// reference, counts it as failed.
func (c *checker) check(j int, out jobOut) {
	c.res.Attempted++
	if out.err != nil {
		c.fail(j, "%v", out.err)
		return
	}
	want := c.inst.want(j)
	if want == "" && !c.inst.distinct {
		want = c.warm
	}
	if want != "" && out.report != want {
		c.fail(j, "report (%d bytes, %d candidates) differs from its reference (%d bytes)", len(out.report), out.candidates, len(want))
		return
	}
	got := c.lastRef
	if out.report != c.lastReport || out.candidates != got.Candidates {
		got = reportRef(out.report, out.candidates)
		c.lastReport, c.lastRef = out.report, got
	}
	c.res.observed[j] = got
	ref, ok := goldenFor(c.p, c.seed, c.w.name, j)
	if !ok {
		return
	}
	c.golden = true
	if got != ref {
		c.res.Golden = "mismatch"
		c.fail(j, "report %s… with %d candidates differs from the committed %s… with %d", got.SHA256[:12], got.Candidates, ref.SHA256[:12], ref.Candidates)
	}
}

func (c *checker) finish() {
	if c.inst.verify != nil {
		c.res.Attempted++
		if err := c.inst.verify(); err != nil {
			c.fail(-1, "%v", err)
		}
	}
	switch {
	case c.res.Golden != "":
	case c.golden:
		c.res.Golden = "match"
	default:
		c.res.Golden = "absent"
	}
}

// jobCounter hands out job numbers; job 0 is the warm-up.
type jobCounter struct{ next int }

// phase is what a batch of jobs cost.
type phase struct {
	js    []int
	outs  []jobOut
	wall  time.Duration // excluding prep
	alloc uint64        // excluding prep
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runPhase runs jobs from the instance's client goroutines, closed loop: a
// client starts its next job when its previous one returned, for as long as
// more(started) holds.
func runPhase(inst *instance, run func(j int) jobOut, ctr *jobCounter, more func(started int) bool) phase {
	var ph phase
	var mu sync.Mutex
	var prepWall time.Duration
	var prepAlloc uint64
	started := 0
	alloc0 := totalAlloc()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < inst.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if !more(started) {
					mu.Unlock()
					return
				}
				started++
				j := ctr.next
				ctr.next++
				mu.Unlock()
				if inst.prep != nil {
					// Single client (see instance.prep), so nothing else
					// allocates meanwhile.
					a, p0 := totalAlloc(), time.Now()
					inst.prep(j)
					prepWall += time.Since(p0)
					prepAlloc += totalAlloc() - a
				}
				out := run(j)
				mu.Lock()
				ph.js = append(ph.js, j)
				ph.outs = append(ph.outs, out)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(t0) - prepWall
	ph.alloc = totalAlloc() - alloc0 - prepAlloc
	return ph
}

func atMost(n int) func(int) bool { return func(started int) bool { return started < n } }

// measure is the untraced run: set-up (several times, for a steady set-up
// time), one discarded warm-up job, then the measured jobs.
func measure(w *workload, p profile, seed int64, sz sizing) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Metrics: metricSet{}, observed: map[int]goldenReport{}}
	var inst *instance
	var setups []float64
	var spent float64
	// Cheap set-ups are repeated more often: their single readings are the
	// noisiest.
	for len(setups) < 3 || (len(setups) < 7 && spent < 1.5) {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(p, seed, false); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		s := time.Since(t0).Seconds()
		setups = append(setups, s)
		spent += s
	}
	defer inst.close()

	chk := &checker{w: w, p: p, seed: seed, inst: inst, res: res}
	ctr := &jobCounter{}
	warm := runPhase(inst, inst.job, ctr, atMost(1))
	chk.warm = warm.outs[0].report
	chk.check(0, warm.outs[0])

	more := atMost(w.jobs)
	switch {
	case sz.jobs > 0:
		more = atMost(sz.jobs)
	case sz.seconds > 0:
		deadline := time.Now().Add(time.Duration(sz.seconds * float64(time.Second)))
		more = func(started int) bool { return started < w.minJobs || time.Now().Before(deadline) }
	}
	ph := runPhase(inst, inst.job, ctr, more)

	var walls []float64
	var wallSum time.Duration
	var records int
	var reach int64
	for i, out := range ph.outs {
		chk.check(ph.js[i], out)
		if out.err != nil {
			continue
		}
		walls = append(walls, ms(out.wall))
		wallSum += out.wall
		records += out.records
		reach = max(reach, out.reach)
	}
	chk.finish()
	res.Jobs = len(ph.outs)
	res.Metrics["job_ms_p50"] = median(walls)
	if wallSum > 0 {
		res.Metrics["records_per_s"] = float64(records) / wallSum.Seconds()
	}
	res.Metrics["jobs_per_s"] = float64(len(ph.outs)) / ph.wall.Seconds()
	res.Metrics["alloc_mb_per_job"] = float64(ph.alloc) / 1e6 / float64(len(ph.outs))
	res.Metrics["reach_mem_mb"] = float64(reach) / 1e6
	res.Metrics["setup_s"] = median(setups)
	return res, nil
}

// layerMetric maps a span name to the per-layer metric that reports its
// per-job time, "" when there is none.
func layerMetric(span string) string {
	for _, suffix := range []string{"_ms", "_ms_p50"} {
		for _, d := range perLayer {
			if d.Name == span+suffix {
				return d.Name
			}
		}
	}
	return ""
}

// measureTraced is the traced run: rounds of untraced jobs and the same jobs
// taken apart under spans, alternating so both see the same machine state,
// then the layer probes. Its timings feed only per-layer metrics.
func measureTraced(w *workload, p profile, seed int64, sz sizing) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Traced: true, Metrics: metricSet{}, observed: map[int]goldenReport{}}
	inst, err := w.setup(p, seed, true)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()
	t := newTracer()
	chk := &checker{w: w, p: p, seed: seed, inst: inst, res: res}
	ctr := &jobCounter{}
	warm := runPhase(inst, inst.job, ctr, atMost(1))
	chk.warm = warm.outs[0].report
	chk.check(0, warm.outs[0])

	// A round is one job per side, or 20 where clients run concurrently and
	// single jobs would not overlap. The round count is fixed, not timed, so
	// that the exact counts a traced run reports (cache hits, windows,
	// candidates) repeat from run to run.
	batch, rounds := 1, 3
	if inst.clients > 1 {
		batch = 20
	}
	if sz.jobs > 0 {
		rounds = max(sz.jobs/batch, 1)
	}
	var plain, traced []float64
	extras := map[string][]float64{}
	collect := func(ph phase, walls *[]float64) {
		for i, out := range ph.outs {
			chk.check(ph.js[i], out)
			if out.err != nil {
				continue
			}
			*walls = append(*walls, ms(out.wall))
			for k, v := range out.extra {
				extras[k] = append(extras[k], v)
			}
		}
	}
	for r := 0; r < rounds; r++ {
		collect(runPhase(inst, inst.job, ctr, atMost(batch)), &plain)
		collect(runPhase(inst, func(j int) jobOut { return inst.traced(t, j) }, ctr, atMost(batch)), &traced)
	}
	res.Jobs = len(traced)

	m := res.Metrics
	for k, vs := range extras {
		m[k] = median(vs)
	}
	spanMs := map[string][]float64{}
	var closure []float64
	for job, totals := range t.jobTotals() {
		if job == probeJob {
			continue
		}
		for name, v := range totals {
			spanMs[name] = append(spanMs[name], v)
		}
		closure = append(closure, totals["top"]/totals["job"])
	}
	for name, vs := range spanMs {
		if metric := layerMetric(name); metric != "" {
			m[metric] = median(vs)
		}
	}
	m["layers.closure_share"] = median(closure)
	if len(plain) > 0 && len(traced) > 0 {
		m["layers.tracing_overhead_share"] = median(traced)/median(plain) - 1
	}
	if err := inst.probes(t, m, chk.warm); err != nil {
		res.Attempted++
		chk.fail(-1, "layer probes: %v", err)
	}
	chk.finish()
	res.SelfMs = t.selfTimes()

	if err := os.MkdirAll(benchDir, 0o755); err != nil {
		return nil, err
	}
	if err := t.write(fmt.Sprintf("%s/spans-%s-seed%d.json", benchDir, w.name, seed)); err != nil {
		return nil, err
	}
	return res, nil
}
