package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// flightFrames is the size of the flight recorder's ring of metric frames.
const flightFrames = 32

// FlightRecorder is the anomaly flight recorder: a bounded ring of periodic
// metric snapshots and a watchdog of named checks. The moment a check trips,
// the frame ring and the tracer's retained traces (every slow trace and one
// in SampleEvery, each with its span tree) are frozen into an Incident — the
// pre-incident window — so the first SLO breach, staleness spike, or WAL
// error preserves the context that led up to it instead of being paged about
// after both rings have churned past it.
//
// The recorder is passive by default: Poll must be driven, either by the
// Start ticker or lazily by the /debug/flightrecorder handler. It costs the
// request path nothing: the traces it freezes are the tracer's own ring.
type FlightRecorder struct {
	tracer *Tracer

	mu          sync.Mutex
	frames      [flightFrames]Frame // metric-snapshot ring
	frameTotal  uint64
	checks      []flightCheck
	snapSources []snapSource
	incident    *Incident

	stopOnce sync.Once
	stopCh   chan struct{}
	started  bool
}

type flightCheck struct {
	name string
	fn   func() (bool, string)
}

type snapSource struct {
	name string
	fn   func() any
}

// Frame is one periodic metric snapshot.
type Frame struct {
	At        time.Time      `json:"at"`
	Snapshots map[string]any `json:"snapshots"`
}

// Incident is the frozen pre-incident window: the frames oldest first, and
// the tracer's retained traces at the trip, newest first.
type Incident struct {
	At     time.Time       `json:"at"`
	Check  string          `json:"check"`
	Reason string          `json:"reason"`
	Frames []Frame         `json:"frames"`
	Traces []*TraceSummary `json:"traces"`
}

// NewFlightRecorder builds a recorder whose incidents freeze tr's retained
// traces.
func NewFlightRecorder(tr *Tracer) *FlightRecorder {
	return &FlightRecorder{tracer: tr, stopCh: make(chan struct{})}
}

// AddCheck registers a watchdog condition. fn returns (tripped, reason);
// it is called on every Poll and must be cheap and non-blocking.
func (fr *FlightRecorder) AddCheck(name string, fn func() (bool, string)) {
	fr.mu.Lock()
	fr.checks = append(fr.checks, flightCheck{name: name, fn: fn})
	fr.mu.Unlock()
}

// AddSnapshot registers a metric source sampled into every frame. fn's
// return value must be JSON-marshalable.
func (fr *FlightRecorder) AddSnapshot(name string, fn func() any) {
	fr.mu.Lock()
	fr.snapSources = append(fr.snapSources, snapSource{name: name, fn: fn})
	fr.mu.Unlock()
}

// Poll captures one metric frame and evaluates the watchdog. On the first
// tripped check (while armed) the frame ring and the tracer's retained
// traces are frozen into the incident; later trips are ignored until Rearm.
// Check and snapshot callbacks run outside the recorder lock so they may
// touch subsystems that themselves trace.
func (fr *FlightRecorder) Poll() {
	fr.mu.Lock()
	sources := append([]snapSource(nil), fr.snapSources...)
	checks := append([]flightCheck(nil), fr.checks...)
	fr.mu.Unlock()

	frame := Frame{At: time.Now(), Snapshots: make(map[string]any, len(sources))}
	for _, s := range sources {
		frame.Snapshots[s.name] = s.fn()
	}
	type trip struct{ name, reason string }
	var tripped *trip
	for _, c := range checks {
		if bad, reason := c.fn(); bad {
			tripped = &trip{name: c.name, reason: reason}
			break
		}
	}

	fr.mu.Lock()
	fr.frames[fr.frameTotal%flightFrames] = frame
	fr.frameTotal++
	if tripped != nil && fr.incident == nil {
		fr.incident = &Incident{
			At:     frame.At,
			Check:  tripped.name,
			Reason: tripped.reason,
			Frames: fr.framesLocked(),
			Traces: fr.tracer.Recent(),
		}
	}
	fr.mu.Unlock()
}

// framesLocked copies the frame ring oldest-first. Caller holds fr.mu.
func (fr *FlightRecorder) framesLocked() []Frame {
	out := make([]Frame, min(fr.frameTotal, flightFrames))
	first := fr.frameTotal - uint64(len(out))
	for i := range out {
		out[i] = fr.frames[(first+uint64(i))%flightFrames]
	}
	return out
}

// Incident returns the frozen incident, or nil while armed.
func (fr *FlightRecorder) Incident() *Incident {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.incident
}

// Rearm clears the incident so the watchdog can trip again.
func (fr *FlightRecorder) Rearm() {
	fr.mu.Lock()
	fr.incident = nil
	fr.mu.Unlock()
}

// Start drives Poll on a background ticker until Stop. Safe to call once;
// deployments that prefer zero background goroutines can skip Start and
// rely on the /debug/flightrecorder handler polling lazily.
func (fr *FlightRecorder) Start(interval time.Duration) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	fr.mu.Lock()
	if fr.started {
		fr.mu.Unlock()
		return
	}
	fr.started = true
	fr.mu.Unlock()
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				fr.Poll()
			case <-fr.stopCh:
				return
			}
		}
	}()
}

// Stop halts the Start ticker (idempotent; no-op if never started).
func (fr *FlightRecorder) Stop() { fr.stopOnce.Do(func() { close(fr.stopCh) }) }

// WriteJSON renders the recorder state for /debug/flightrecorder: the live
// frame ring plus the frozen incident (null while armed). The live traces
// are /debug/traces.
func (fr *FlightRecorder) WriteJSON(w io.Writer) error {
	fr.mu.Lock()
	out := struct {
		Armed    bool      `json:"armed"`
		Incident *Incident `json:"incident"`
		Frames   []Frame   `json:"frames"`
	}{
		Armed:    fr.incident == nil,
		Incident: fr.incident,
		Frames:   fr.framesLocked(),
	}
	fr.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// --- windowed quantiles for the SLO watchdog ---

// quantileOf estimates the p-th quantile from bucket counts over the given
// bounds by linear interpolation within the bucket that contains it. It
// takes a plain count snapshot, so it serves Histogram.Quantile and the
// windowed deltas alike.
func quantileOf(bounds []int64, counts []int64, p float64) float64 {
	var total int64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := p * float64(total)
	var cum int64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lo := int64(0)
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := lo * 2
			if i < len(bounds) {
				hi = bounds[i]
			}
			frac := (rank - float64(cum)) / float64(n)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += n
	}
	return float64(bounds[len(bounds)-1])
}

// histogramWindow computes quantiles over the observations that arrived
// since the previous advance — histograms are lifetime-cumulative, so SLO
// checks need the delta or a single slow burst would page forever.
type histogramWindow struct {
	h    *Histogram
	prev []int64 // bucket counts at the previous advance
}

// advance returns (quantile, windowCount) for the observations since the
// last advance (native units), then moves the window forward.
func (w *histogramWindow) advance(p float64) (float64, int64) {
	cur := w.h.Counts()
	delta := make([]int64, len(cur))
	var total int64
	for i := range cur {
		delta[i] = cur[i] - w.prev[i]
		total += delta[i]
	}
	w.prev = cur
	if total == 0 {
		return 0, 0
	}
	return quantileOf(w.h.Bounds(), delta, p), total
}

// SLOCheck builds a watchdog check over a latency HistogramVec: it trips
// when any child's windowed p-quantile exceeds budget (native units, i.e.
// nanoseconds for latency histograms). Windows are tracked per child across
// calls; children appearing later are picked up on their first poll.
func SLOCheck(vec *HistogramVec, p float64, budget int64) func() (bool, string) {
	windows := map[string]*histogramWindow{}
	var mu sync.Mutex
	return func() (bool, string) {
		mu.Lock()
		defer mu.Unlock()
		bad := false
		var reason string
		vec.Each(func(values []string, h *Histogram) {
			key := strings.Join(values, "\x00")
			w, ok := windows[key]
			if !ok {
				// First sighting: the whole history is the window, so a
				// child born slow still trips on its first poll.
				w = &histogramWindow{h: h, prev: make([]int64, len(h.Counts()))}
				windows[key] = w
			}
			q, n := w.advance(p)
			if !bad && n > 0 && q > float64(budget) {
				bad = true
				reason = fmt.Sprintf("p%d %.3fms over budget %.3fms for %s (n=%d)",
					int(p*100), q/1e6, float64(budget)/1e6, strings.Join(values, " "), n)
			}
		})
		return bad, reason
	}
}
