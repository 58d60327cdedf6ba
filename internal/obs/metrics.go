package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
)

// histBuckets are the upper bounds, in seconds, of the phase- and
// run-time histograms: log-spaced from 1 µs (a single short phase) to
// 10 s (a large native sort), which covers both the simulator's
// virtual microseconds and native wall times.
var histBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// knownEventKinds are pre-registered so a scrape always exposes the
// fault/verify/cancel counter families at zero — Prometheus treats an
// absent series and a zero series very differently for alerting.
var knownEventKinds = []string{
	EventFault, EventVerifyFailure, EventCancel, EventDeadline, EventPanic, EventAbort,
	EventOverload, EventRetry, EventQuarantine, EventBreaker, EventDegraded, EventPlan,
}

// Metrics is a Sink that aggregates the telemetry stream into
// Prometheus-style counters and histograms, exposed three ways: the
// text exposition format (WriteProm / ServeHTTP, scrapeable at
// /metrics), an expvar.Func for /debug/vars, and direct accessor
// methods for tests and programmatic inspection.
type Metrics struct {
	mu       sync.Mutex
	runs     map[string]float64 // outcome ("ok"/"error") -> runs
	events   map[string]float64 // event kind -> count
	keys     float64            // keys sorted, successful runs
	remaps   float64            // per-processor remap rounds, summed
	volume   float64            // keys sent between processors
	messages float64

	phase    [NumPhases]Histogram // span durations by phase, seconds
	makespan Histogram            // run makespan, backend-clock seconds
	wall     Histogram            // run wall duration, seconds
}

// NewMetrics returns a Metrics sink with all known counter families
// pre-registered at zero.
func NewMetrics() *Metrics {
	m := &Metrics{
		runs:     map[string]float64{"ok": 0, "error": 0},
		events:   map[string]float64{},
		makespan: NewHistogram(histBuckets),
		wall:     NewHistogram(histBuckets),
	}
	for ph := range m.phase {
		m.phase[ph] = NewHistogram(histBuckets)
	}
	for _, k := range knownEventKinds {
		m.events[k] = 0
	}
	return m
}

// RunStart implements Sink as a no-op; runs are counted at RunEnd.
func (m *Metrics) RunStart(RunMeta) {}

// FlushSpans implements Sink: span durations feed the per-phase
// histograms (converted µs -> seconds).
func (m *Metrics) FlushSpans(_ int, spans []Span) {
	m.mu.Lock()
	for _, s := range spans {
		if s.Phase < NumPhases {
			m.phase[s.Phase].Observe(s.Duration() / 1e6) // µs -> s
		}
	}
	m.mu.Unlock()
}

// Emit implements Sink: events bump the per-kind counters.
func (m *Metrics) Emit(e Event) {
	m.mu.Lock()
	m.events[e.Kind]++
	m.mu.Unlock()
}

// RunEnd implements Sink: it counts the run by outcome and folds the
// summary into the cumulative totals.
func (m *Metrics) RunEnd(s RunSummary) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.Err != "" {
		m.runs["error"]++
		return
	}
	m.runs["ok"]++
	m.keys += float64(s.Keys)
	m.remaps += float64(s.Remaps)
	m.volume += float64(s.Volume)
	m.messages += float64(s.Messages)
	m.makespan.Observe(s.Makespan / 1e6)
	m.wall.Observe(s.WallSeconds)
}

// EventCount returns the count of one event kind.
func (m *Metrics) EventCount(kind string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.events[kind]
}

// RunCount returns the number of runs with the given outcome
// ("ok" or "error").
func (m *Metrics) RunCount(outcome string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runs[outcome]
}

// PhaseSeconds returns the total observed time of one phase, in
// seconds, and the number of spans observed.
func (m *Metrics) PhaseSeconds(p Phase) (seconds float64, spans uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p >= NumPhases {
		return 0, 0
	}
	return m.phase[p].Sum(), m.phase[p].Count()
}

// WriteProm writes the metrics in the Prometheus text exposition
// format (version 0.0.4).
func (m *Metrics) WriteProm(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := NewPromWriter(w, true)

	p.Header("parbitonic_runs_total", "counter", "Completed sort runs by outcome.")
	for _, outcome := range sortedKeys(m.runs) {
		p.Printf("parbitonic_runs_total{outcome=%q} %v\n", outcome, m.runs[outcome])
	}

	p.Header("parbitonic_events_total", "counter", "Runtime events by kind: injected faults, verification failures, cancellations, deadlines, panics, aborts.")
	for _, kind := range sortedKeys(m.events) {
		p.Printf("parbitonic_events_total{kind=%q} %v\n", kind, m.events[kind])
	}

	p.Header("parbitonic_keys_sorted_total", "counter", "Keys sorted by successful runs.")
	p.Printf("parbitonic_keys_sorted_total %v\n", m.keys)

	p.Header("parbitonic_remaps_total", "counter", "Remap rounds participated in, summed over processors (the paper's R).")
	p.Printf("parbitonic_remaps_total %v\n", m.remaps)

	p.Header("parbitonic_volume_keys_total", "counter", "Keys sent between processors (the paper's V).")
	p.Printf("parbitonic_volume_keys_total %v\n", m.volume)

	p.Header("parbitonic_messages_total", "counter", "Messages sent between processors (the paper's M).")
	p.Printf("parbitonic_messages_total %v\n", m.messages)

	p.Header("parbitonic_phase_seconds", "histogram", "Span durations by phase, backend-clock seconds.")
	for ph := Phase(0); ph < NumPhases; ph++ {
		p.Hist("parbitonic_phase_seconds", fmt.Sprintf("phase=%q", ph), &m.phase[ph])
	}

	p.Header("parbitonic_run_makespan_seconds", "histogram", "Run makespan on the backend clock, seconds.")
	p.Hist("parbitonic_run_makespan_seconds", "", &m.makespan)

	p.Header("parbitonic_run_wall_seconds", "histogram", "Measured wall duration of runs, seconds.")
	p.Hist("parbitonic_run_wall_seconds", "", &m.wall)

	return p.Err()
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ServeHTTP serves the Prometheus exposition — mount at /metrics.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = m.WriteProm(w)
}

// ExpvarFunc returns an expvar.Func exposing a snapshot of all
// counters and per-phase totals, suitable for expvar.Publish or a
// /debug/vars handler.
func (m *Metrics) ExpvarFunc() expvar.Func {
	return func() any {
		m.mu.Lock()
		defer m.mu.Unlock()
		phases := map[string]any{}
		for ph := Phase(0); ph < NumPhases; ph++ {
			phases[ph.String()] = map[string]any{
				"seconds": sanitize(m.phase[ph].Sum()),
				"spans":   m.phase[ph].Count(),
			}
		}
		return map[string]any{
			"runs":        copyMap(m.runs),
			"events":      copyMap(m.events),
			"keys_sorted": m.keys,
			"remaps":      m.remaps,
			"volume_keys": m.volume,
			"messages":    m.messages,
			"phase":       phases,
		}
	}
}

func copyMap(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// Handler returns an http.Handler serving the Prometheus exposition at
// /metrics and the expvar JSON dump at /debug/vars (the metrics appear
// under the "parbitonic" key, without touching the process-global
// expvar registry).
func (m *Metrics) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", m)
	vars := m.ExpvarFunc()
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\n%q: %s\n}\n", "parbitonic", vars.String())
	})
	return mux
}
