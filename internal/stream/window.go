package stream

import (
	"runtime"

	"dcatch/internal/hb"
	"dcatch/internal/trace"
	"dcatch/internal/window"
)

// Eager windowed analysis: windows close the moment they fill and are
// scanned (window.Engine) and folded on arrival; records behind the next
// window's start are then released, so live memory stays around one window
// plus its graph no matter how long the stream runs.
//
// The window list comes from hb.WindowCutter, so it is hb.ChunkWindows' list
// and Finish is byte-identical to the chunked replay.
type windowed struct {
	a   *Analyzer
	cut *hb.WindowCutter

	bufBase int // full-trace index of buf[0]
	buf     []trace.Rec

	eng  *window.Engine
	fold *window.Fold
}

func newWindowed(a *Analyzer) *windowed {
	return &windowed{
		a:    a,
		cut:  hb.NewWindowCutter(a.opts.ChunkSize, 0),
		eng:  window.New(a.opts.HB, a.opts.Detect, a.opts.Cache),
		fold: window.NewFold(a.opts.Detect),
	}
}

func (w *windowed) append(r trace.Rec) {
	if w.fold.Err != nil {
		return // analysis already failed; the result is OOM regardless
	}
	w.buf = append(w.buf, r)
	if wn, ok := w.cut.Next(w.bufBase + len(w.buf)); ok {
		w.close(wn)
	}
}

// close analyzes the window the cutter just cut and releases the records
// behind the next window's start.
func (w *windowed) close(wn [2]int) {
	// The engine reads a zero-copy view of the live buffer and is done with
	// it before the copy-down below touches it.
	view := &trace.Trace{
		Program:        w.a.tr.Program,
		Recs:           w.buf[wn[0]-w.bufBase : wn[1]-w.bufBase],
		QueueConsumers: w.a.tr.QueueConsumers,
	}
	res, err := w.eng.Scan(view, wn[0], wn[1])
	w.fold.Add(res, err, wn[0])
	if err != nil {
		w.buf = nil
		return
	}
	w.a.notePeak(res.MemBytes)

	// The copy-down keeps the backing array at one window plus overlap.
	if drop := w.cut.Start() - w.bufBase; drop > 0 {
		n := copy(w.buf, w.buf[drop:])
		w.buf = w.buf[:n]
		w.bufBase += drop
	}
}

func (w *windowed) finish() *Result {
	if w.fold.Err == nil {
		if wn, ok := w.cut.Finish(w.a.count); ok {
			w.close(wn)
		}
	}
	return windowedResult(w.fold, w.a.count)
}

func windowedResult(fold *window.Fold, records int) *Result {
	if fold.Err != nil {
		return &Result{OOM: true, Err: fold.Err, Chunked: true}
	}
	return &Result{
		Report:     fold.Report(),
		Chunked:    true,
		HBVertices: records,
		HBMemBytes: fold.PeakBytes,
		Backend:    fold.Backend,
	}
}

// replayWindows is the non-eager fallback: the accumulated trace is cut by
// hb.ChunkWindows and each window scanned from a zero-copy view by the same
// engine the eager mode uses. Windows flow through a bounded ordered
// pipeline: up to HB.Parallelism are in flight ahead of the fold, which
// takes them in window order, so at most that many window graphs are alive
// at once and the report does not depend on which scan finishes first. Once
// a window has failed no further one is launched.
func (a *Analyzer) replayWindows() *Result {
	cfg := a.opts.HB
	bsp := cfg.Obs.Child("hb.build_chunked")
	cfg.Obs = bsp
	windows := hb.ChunkWindows(len(a.tr.Recs), a.opts.ChunkSize, 0)
	bsp.Attr("windows", len(windows))
	bsp.Count("hb.chunk_windows", int64(len(windows)))

	p := cfg.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	eng := window.New(cfg, a.opts.Detect, a.opts.Cache)
	fold := window.NewFold(a.opts.Detect)
	type scanOut struct {
		res window.Result
		err error
	}
	scans := make([]chan scanOut, len(windows))
	launched := 0
	for i, wn := range windows {
		for ; launched < len(windows) && launched < i+p && fold.Err == nil; launched++ {
			out, lw := make(chan scanOut, 1), windows[launched]
			scans[launched] = out
			go func() {
				res, err := eng.Scan(a.tr.Window(lw[0], lw[1]), lw[0], lw[1])
				out <- scanOut{res, err}
			}()
		}
		if i == launched {
			break
		}
		out := <-scans[i]
		fold.Add(out.res, out.err, wn[0])
	}
	bsp.End()
	return windowedResult(fold, len(a.tr.Recs))
}
