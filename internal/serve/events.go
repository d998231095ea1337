package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"dcatch/internal/obs"
)

// Per-job live event streaming. Every job carries an eventHub: the job's
// obs.Recorder publishes span boundaries and log lines into it, the manager
// publishes state transitions, and GET /v1/jobs/{id}/events replays the
// bounded ring buffer and then follows live until the job goes terminal.
//
// The hub is strictly non-blocking on the publish side — the analysis
// worker never waits for a slow stream consumer. A subscriber channel is
// sized to hold a full ring replay plus slack; once it fills, further live
// events are dropped for that subscriber (counted in serve.events.dropped)
// and the consumer sees a seq gap.

// eventRing bounds each job's event ring: late subscribers replay at most
// this many events, and a slow consumer starts dropping once roughly this
// far behind.
const eventRing = 512

// eventHeartbeat is the idle keep-alive interval on event streams.
const eventHeartbeat = 5 * time.Second

// jobTelemetry bundles the per-job observability surfaces handed to
// manager.submit: the recorder analysis stages record into and the hub its
// events stream through. The zero value (direct submit calls in tests, or
// Config.NoJobTelemetry) disables both; every path is nil-safe.
type jobTelemetry struct {
	rec *obs.Recorder
	hub *eventHub
}

// eventHub is one job's bounded event fan-out.
type eventHub struct {
	mu      sync.Mutex
	t0      time.Time
	ring    []obs.Event // last ringCap events, for replay to late subscribers
	ringCap int
	nextSeq int64
	dropped int64
	closed  bool
	subs    map[chan obs.Event]struct{}
}

func newEventHub(ringCap int) *eventHub {
	return &eventHub{t0: time.Now(), ringCap: ringCap, subs: map[chan obs.Event]struct{}{}}
}

// publish numbers e and fans it out; called from the recorder's event sink
// and from the manager's state transitions. Never blocks: a full subscriber
// buffer drops the event for that subscriber.
func (h *eventHub) publish(e obs.Event) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.nextSeq++
	e.Seq = h.nextSeq
	if len(h.ring) == h.ringCap {
		copy(h.ring, h.ring[1:])
		h.ring[len(h.ring)-1] = e
	} else {
		h.ring = append(h.ring, e)
	}
	for ch := range h.subs {
		select {
		case ch <- e:
		default:
			h.dropped++
		}
	}
	h.mu.Unlock()
}

// publishState emits a job state-transition event stamped against the hub's
// own start time.
func (h *eventHub) publishState(state string) {
	if h == nil {
		return
	}
	h.publish(obs.Event{
		Type: obs.EventState, Name: state,
		AtMs: float64(time.Since(h.t0).Microseconds()) / 1000,
	})
}

// subscribe registers a new consumer: the ring is replayed into the channel
// (it always fits — the buffer exceeds the ring), then live events follow.
// The channel is closed once the hub closes and the buffer drains. cancel
// unregisters; it is safe to call after close.
func (h *eventHub) subscribe() (ch chan obs.Event, cancel func()) {
	if h == nil {
		return nil, func() {}
	}
	ch = make(chan obs.Event, h.ringCap+64)
	h.mu.Lock()
	for _, e := range h.ring {
		ch <- e
	}
	if h.closed {
		close(ch)
	} else {
		h.subs[ch] = struct{}{}
	}
	h.mu.Unlock()
	return ch, func() {
		h.mu.Lock()
		if _, ok := h.subs[ch]; ok {
			delete(h.subs, ch)
			close(ch)
		}
		h.mu.Unlock()
	}
}

// close ends the stream: subscriber channels close after their buffered
// events drain, and later subscribers get replay-then-close. Idempotent.
func (h *eventHub) close() {
	if h == nil {
		return
	}
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		for ch := range h.subs {
			close(ch)
		}
		h.subs = map[chan obs.Event]struct{}{}
	}
	h.mu.Unlock()
}

// droppedCount returns how many events were dropped on full subscriber
// buffers.
func (h *eventHub) droppedCount() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped
}

// newJobTelemetry builds one job's recorder + hub pair. The recorder's
// event sink is installed before the recorder is handed to any instrumented
// code, so the stream sees every span from the first decode onwards. With
// Config.NoJobTelemetry the recorder is nil (analysis records nothing) but
// the hub still exists, so state transitions stream either way.
//
// The recorder joins the metrics registry only once its job is accepted
// (see submitSubject/submitTrace) — rejected submissions leave no trace in
// /metrics aggregates.
func (s *Server) newJobTelemetry() jobTelemetry {
	hub := newEventHub(eventRing)
	var rec *obs.Recorder
	if !s.cfg.NoJobTelemetry {
		rec = obs.New()
		rec.SetEvents(hub.publish)
	}
	return jobTelemetry{rec: rec, hub: hub}
}

// handleJobEvents streams one job's live telemetry. Default framing is
// NDJSON (one Event JSON object per line); an Accept header containing
// text/event-stream selects SSE framing. The stream starts with a replay of
// the buffered events, follows live with periodic heartbeats, and ends when
// the job reaches a terminal state (or the client disconnects).
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	emit := func(e obs.Event) bool {
		buf, err := json.Marshal(e)
		if err != nil {
			return false
		}
		if sse {
			_, err = fmt.Fprintf(w, "data: %s\n\n", buf)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", buf)
		}
		if err != nil {
			return false
		}
		if fl != nil {
			fl.Flush()
		}
		return true
	}

	ch, cancel := j.hub.subscribe()
	defer cancel()
	if ch == nil {
		// No hub (direct manager submission): report the current state once.
		emit(obs.Event{Type: obs.EventState, Name: j.status().State})
		return
	}
	hb := time.NewTicker(eventHeartbeat)
	defer hb.Stop()
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				return // job terminal, buffer drained
			}
			if !emit(e) {
				return
			}
		case <-hb.C:
			if !emit(obs.Event{Type: obs.EventHeartbeat}) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleJobMetrics serves one job's telemetry snapshot: counters,
// histograms and the span timeline its analysis recorded, any time after
// submission (an unfinished job reports spans-so-far).
func (s *Server) handleJobMetrics(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	st := j.status()
	jm := JobMetrics{
		SchemaVersion: JobMetricsVersion,
		ID:            st.ID,
		Kind:          st.Kind,
		State:         st.State,
		CacheHit:      st.CacheHit,
		Counters:      j.rec.Counters(),
		Histograms:    j.rec.HistogramData(),
		Spans:         j.rec.Spans(0),
		EventsDropped: j.hub.droppedCount(),
	}
	if jm.Counters == nil {
		jm.Counters = map[string]int64{}
	}
	if jm.Histograms == nil {
		jm.Histograms = map[string]obs.HistogramData{}
	}
	if jm.Spans == nil {
		jm.Spans = []obs.SpanData{}
	}
	writeJSON(w, http.StatusOK, jm)
}
