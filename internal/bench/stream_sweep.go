package bench

import (
	"fmt"
	"time"
	"unsafe"

	"dcatch/internal/detect"
	"dcatch/internal/hb"
	"dcatch/internal/stream"
	"dcatch/internal/trace"
)

// The streaming sweep measures what the incremental pipeline buys over the
// batch path on bounded-context traces (SyntheticTraceBounded):
// time-to-first-candidate (the online provisional engine surfaces its first
// pair while the "upload" is still arriving, against a batch path that
// cannot say anything before the full build) and peak live memory (the eager
// windowed mode holds one window plus its graph, against the batch path's
// full record array plus closure). Both streaming legs' final reports are
// cross-checked byte-for-byte against their batch oracles — full build for
// the provisional leg, BuildChunked+FindChunked for the eager leg — and any
// divergence fails the sweep.

// streamRecSize is one decoded record header, the unit both the analyzer's
// live accounting and the batch footprint estimate use.
const streamRecSize = int64(unsafe.Sizeof(trace.Rec{}))

// streamSegment is how many records one simulated delivery carries.
const streamSegment = 2048

// streamChunkSize is the eager leg's window length.
const streamChunkSize = 8000

// streamMaxGroup caps the per-location pair scan: the synthetic traces hammer
// a small object pool, so detection time would otherwise swamp what the sweep
// measures.
const streamMaxGroup = 300

// StreamLeg is one streaming measurement at one trace size.
type StreamLeg struct {
	WallMs float64 `json:"wall_ms"`

	// TTFCMs is the time from the first record's arrival to the first
	// provisional candidate; TTFCFraction is that over the batch wall time
	// (provisional leg only).
	TTFCMs       float64 `json:"ttfc_ms,omitempty"`
	TTFCFraction float64 `json:"ttfc_fraction,omitempty"`
	// FirstCandidateRecord is how many records had arrived when the first
	// provisional candidate fired.
	FirstCandidateRecord int `json:"first_candidate_record,omitempty"`

	// Provisional/Retracted count the online engine's emissions and how many
	// of them the authoritative finish withdrew (provisional leg only).
	Provisional int `json:"provisional,omitempty"`
	Retracted   int `json:"retracted,omitempty"`

	// PeakLiveBytes is the analyzer's record-buffer + frontier (+ window
	// graph) high-water mark.
	PeakLiveBytes int64 `json:"peak_live_bytes"`
	Candidates    int   `json:"candidates"`

	// Identical asserts the leg's final report rendered byte-identically to
	// its batch oracle.
	Identical bool `json:"reports_identical"`
}

// StreamPoint groups the measurements at one trace size.
type StreamPoint struct {
	Records int `json:"records"`

	// BatchWallMs is the batch build+detect wall time; BatchFootprintBytes
	// its live set (full record array plus the closure's reach index).
	BatchWallMs         float64 `json:"batch_wall_ms"`
	BatchFootprintBytes int64   `json:"batch_footprint_bytes"`

	Streaming StreamLeg `json:"streaming"`
	Eager     StreamLeg `json:"eager"`
}

// StreamSweep is the full -stream-records sweep.
type StreamSweep struct {
	ChunkSize int           `json:"chunk_size"`
	MaxGroup  int           `json:"max_group"`
	Seed      int64         `json:"seed"`
	Points    []StreamPoint `json:"points"`
}

// RunStreamSweep measures the streaming pipeline against the batch path on a
// bounded-context synthetic trace of each given size (chain backend, the
// regime where the full closure fits). It returns an error if either
// streaming leg's final report diverges from its batch oracle.
func RunStreamSweep(sizes []int, seed int64, logf func(format string, args ...any)) (*StreamSweep, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	sweep := &StreamSweep{ChunkSize: streamChunkSize, MaxGroup: streamMaxGroup, Seed: seed}
	hcfg := hb.Config{ReachBackend: hb.BackendChain}
	dopt := detect.Options{MaxGroup: streamMaxGroup}
	for _, n := range sizes {
		tr := SyntheticTraceBounded(n, seed)
		point := StreamPoint{Records: n}

		// Batch oracle: full build + detect, the wall time the TTFC is
		// measured against.
		t0 := time.Now()
		g, err := hb.Build(tr, hcfg)
		if err != nil {
			return nil, fmt.Errorf("bench: batch build at %d records: %w", n, err)
		}
		batchRep := detect.Find(g, dopt).Format(nil)
		point.BatchWallMs = float64(time.Since(t0).Microseconds()) / 1000
		point.BatchFootprintBytes = int64(n)*streamRecSize + g.MemBytes()

		// Streaming provisional leg: records arrive in segments, the online
		// engine emits candidates mid-stream, Finish reruns the batch engine.
		var leg StreamLeg
		var ttfc time.Duration
		t0 = time.Now()
		an := stream.New(stream.Options{
			HB: hcfg, Detect: dopt,
			Provisional: true,
			OnEvent: func(ev stream.Event) {
				switch ev.Kind {
				case stream.EventCandidate:
					if leg.Provisional == 0 {
						ttfc = time.Since(t0)
						leg.FirstCandidateRecord = ev.Records
					}
					leg.Provisional++
				case stream.EventRetract:
					leg.Retracted++
				}
			},
		})
		an.SetMeta(tr.Program, tr.QueueConsumers)
		for lo := 0; lo < n; lo += streamSegment {
			hi := min(lo+streamSegment, n)
			an.AppendBatch(tr.Recs[lo:hi])
		}
		sr := an.Finish()
		leg.WallMs = float64(time.Since(t0).Microseconds()) / 1000
		if sr.OOM {
			return nil, fmt.Errorf("bench: streaming finish at %d records: %v", n, sr.Err)
		}
		leg.TTFCMs = float64(ttfc.Microseconds()) / 1000
		if point.BatchWallMs > 0 {
			leg.TTFCFraction = leg.TTFCMs / point.BatchWallMs
		}
		leg.PeakLiveBytes = an.PeakLiveBytes()
		leg.Candidates = sr.Report.CallstackCount()
		leg.Identical = sr.Report.Format(nil) == batchRep
		point.Streaming = leg
		logf("%d records, streaming: ttfc %.1fms at record %d (%.0f%% of batch %.0fms), %d provisional (%d retracted), identical=%v",
			n, leg.TTFCMs, leg.FirstCandidateRecord, leg.TTFCFraction*100,
			point.BatchWallMs, leg.Provisional, leg.Retracted, leg.Identical)
		if !leg.Identical {
			sweep.Points = append(sweep.Points, point)
			return sweep, fmt.Errorf("bench: streaming report diverged from batch at %d records", n)
		}

		// Eager windowed leg: one window plus its graph alive at a time; the
		// oracle is the batch chunked pipeline over the same window list.
		ct0 := time.Now()
		cg, err := hb.BuildChunked(tr, hb.ChunkConfig{Base: hcfg, ChunkSize: streamChunkSize})
		if err != nil {
			return nil, fmt.Errorf("bench: chunked oracle at %d records: %w", n, err)
		}
		chunkedRep := detect.FindChunked(cg, dopt).Format(nil)
		chunkedWall := float64(time.Since(ct0).Microseconds()) / 1000

		var eager StreamLeg
		t0 = time.Now()
		ean := stream.New(stream.Options{
			HB: hcfg, Detect: dopt,
			ChunkSize: streamChunkSize, Eager: true,
		})
		ean.SetMeta(tr.Program, tr.QueueConsumers)
		for lo := 0; lo < n; lo += streamSegment {
			hi := min(lo+streamSegment, n)
			ean.AppendBatch(tr.Recs[lo:hi])
		}
		esr := ean.Finish()
		eager.WallMs = float64(time.Since(t0).Microseconds()) / 1000
		if esr.OOM {
			return nil, fmt.Errorf("bench: eager finish at %d records: %v", n, esr.Err)
		}
		eager.PeakLiveBytes = ean.PeakLiveBytes()
		eager.Candidates = esr.Report.CallstackCount()
		eager.Identical = esr.Report.Format(nil) == chunkedRep
		point.Eager = eager
		logf("%d records, eager (window %d): %.0fms vs chunked batch %.0fms, peak live %.1fMB vs batch footprint %.1fMB, identical=%v",
			n, streamChunkSize, eager.WallMs, chunkedWall,
			float64(eager.PeakLiveBytes)/(1<<20), float64(point.BatchFootprintBytes)/(1<<20), eager.Identical)
		if !eager.Identical {
			sweep.Points = append(sweep.Points, point)
			return sweep, fmt.Errorf("bench: eager windowed report diverged from chunked batch at %d records", n)
		}
		if eager.PeakLiveBytes >= point.BatchFootprintBytes {
			logf("WARNING: %d records: eager peak live (%d bytes) not below the batch footprint (%d bytes)",
				n, eager.PeakLiveBytes, point.BatchFootprintBytes)
		}
		sweep.Points = append(sweep.Points, point)
	}
	return sweep, nil
}
