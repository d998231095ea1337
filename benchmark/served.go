package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dcatch/internal/core"
	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/obs"
	"dcatch/internal/serve"
	"dcatch/internal/trace"
)

// servedTraces is how many distinct traces the clients cycle through: job j
// uploads trace j mod 16. One small trace's cost (its provisional candidates,
// its allocations) varies by several percent with the generator seed; a run
// that mixes sixteen is steady across seeds.
const servedTraces = 16

// servedSeed is the generator seed of the k-th served trace.
func servedSeed(seed int64, k int) int64 { return seed + int64(k)*1_000_003 }

// served drives an in-process dcatch-serve over loopback HTTP.
type served struct {
	p      profile
	inputs []traceInput
	client *serve.Client

	// Totals over the run, reported by probes.
	cacheHits, rejected, dropped atomic.Int64
	mu                           sync.Mutex
	walls                        []float64
}

// servedUpload maps job j to the upload it makes: every 5th job resubmits
// job j−4 byte for byte and must hit the report cache.
func servedUpload(j int) int {
	if j >= 5 && j%5 == 0 {
		return j - 4
	}
	return j
}

// servedOptions are upload j's options. parallel=1 because the service's two
// workers already fill both cores; a unique max_group makes the upload miss
// the report cache. No location has 100 000 accesses, so the cap never
// changes a report.
func servedOptions(p profile, j int) serve.JobOptions {
	return serve.JobOptions{
		Parallelism: 1, Reach: "auto", MemBudget: p.servedBudget,
		ChunkSize: p.chunk, MaxGroup: 100_000 + j,
	}
}

// submit uploads the trace, backing off while the service answers 429.
func (s *served) submit(j int) (*serve.JobStatus, error) {
	const retries = 10
	data, opt := s.inputs[j%servedTraces].data, servedOptions(s.p, j)
	for attempt := 0; ; attempt++ {
		st, err := s.client.SubmitTrace(bytes.NewReader(data), opt)
		if err == nil || !serve.IsBusy(err) || attempt == retries {
			return st, err
		}
		s.rejected.Add(1)
		time.Sleep(20 * time.Millisecond)
	}
}

// run is one served job: upload, follow the event stream until it closes at
// the terminal state, then fetch status and report.
func (s *served) run(t *tracer, j int) jobOut {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	t0 := time.Now()
	js := beginJob(t, j)
	var st *serve.JobStatus
	var report []byte
	err := func() (err error) {
		defer js.end()
		js.time("serve.submit", func() { st, err = s.submit(servedUpload(j)) })
		if err != nil {
			return err
		}
		id := st.ID
		js.time("serve.wait", func() {
			err = s.client.StreamEvents(ctx, id, func(obs.Event) error { return nil })
		})
		if err != nil {
			return err
		}
		js.time("serve.status", func() { st, err = s.client.Status(id) })
		if err != nil {
			return err
		}
		if st.State != serve.StateDone || st.OOM || st.Stats == nil {
			return fmt.Errorf("job %s ended in state %q (oom=%v): %s", id, st.State, st.OOM, st.Error)
		}
		js.time("serve.report_fetch", func() { report, err = s.client.Report(id) })
		return err
	}()
	if err != nil {
		return jobOut{err: err}
	}
	out := jobOut{
		wall: time.Since(t0), report: string(report),
		candidates: st.Stats.TACallstack, records: st.Stats.TraceRecords, reach: st.Stats.HBMemBytes,
	}
	if t == nil {
		return out
	}
	// Server-side timings, fetched after the job clock stopped.
	if st.CacheHit {
		s.cacheHits.Add(1)
	}
	s.mu.Lock()
	s.walls = append(s.walls, ms(out.wall))
	s.mu.Unlock()
	jm, err := s.client.JobMetrics(st.ID)
	if err != nil {
		out.err = err
		return out
	}
	s.dropped.Add(jm.EventsDropped)
	out.extra = metricSet{}
	for _, sp := range jm.Spans {
		switch sp.Name {
		case "serve.decode", "serve.queue_wait", "serve.admission_wait", "serve.run":
			out.extra[sp.Name+"_ms_p50"] = float64(sp.WallNs) / 1e6
		}
	}
	return out
}

func setupServed(p profile, seed int64, traced bool) (*instance, error) {
	// What the service must return: the same analysis run locally and
	// rendered by the renderer the service uses.
	local := core.Options{
		HB:        hb.Config{ReachBackend: hb.BackendAuto, MemBudget: p.servedBudget, Parallelism: 1},
		Detect:    detect.Options{Parallelism: 1, MaxGroup: 100_000},
		ChunkSize: p.chunk,
	}
	inputs := make([]traceInput, servedTraces)
	refs := make([]string, servedTraces)
	for k := range inputs {
		var err error
		if inputs[k], err = genInput(p.servedRecords, servedSeed(seed, k), boundedShape); err != nil {
			return nil, err
		}
		tr, err := trace.Decode(bytes.NewReader(inputs[k].data))
		if err != nil {
			return nil, err
		}
		res, err := core.AnalyzeTrace(tr, local)
		if err != nil {
			return nil, err
		}
		if res.OOM {
			return nil, errors.New("local analysis of a served trace ran out of memory")
		}
		refs[k] = serve.RenderTrace(res)
	}

	srv := serve.New(serve.Config{})
	base, stop, err := listen(srv.Handler())
	if err != nil {
		shutdown(srv)
		return nil, err
	}
	// One loopback connection per client.
	transport := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	s := &served{
		p: p, inputs: inputs,
		client: &serve.Client{Base: base, HTTP: &http.Client{Transport: transport}},
	}
	return &instance{
		clients: 2,
		job:     func(j int) jobOut { return s.run(nil, j) },
		want:    func(j int) string { return refs[servedUpload(j)%servedTraces] },
		traced:  s.run,
		probes: func(t *tracer, m metricSet, _ string) error {
			probeCodec(t, m, inputs[0])
			probeProvisional(t, m, inputs[0].tr, local)
			m["serve.cache_hits"] = float64(s.cacheHits.Load())
			m["serve.rejected_429"] = float64(s.rejected.Load())
			m["serve.events_dropped"] = float64(s.dropped.Load())
			m["serve.job_ms_p95"] = percentile(s.walls, 0.95)
			return nil
		},
		close: func() {
			transport.CloseIdleConnections()
			shutdown(srv)
			stop()
		},
	}, nil
}

// shutdown drains the service, bounded in case a job is stuck.
func shutdown(srv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}
