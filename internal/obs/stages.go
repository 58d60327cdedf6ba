package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Stage identifies where a request's wall-clock time went inside the
// serve pipeline — the request-scoped analogue of Phase, which
// attributes engine time inside one run. The five stages partition a
// request's life from admission to response delivery.
type Stage uint8

// The stages, in pipeline order.
const (
	// StageQueue is admission-queue wait: enqueue to dispatcher pull.
	StageQueue Stage = iota
	// StageBatch is coalescing and executor wait: dispatcher pull to
	// engine-run start (the batching window plus any wait for a free
	// executor, plus input packing).
	StageBatch
	// StageEngine is time inside engine runs, summed across retry
	// attempts (degraded-fallback serving time also lands here).
	StageEngine
	// StageRetry is retry backoff: the deliberate sleeps between
	// failed attempts.
	StageRetry
	// StageCopyOut is result extraction: un-tagging and copying the
	// request's slice out of the shared batch buffer.
	StageCopyOut
	// NumStages is the count of stage values, for dense tables.
	NumStages
)

// String returns the lowercase stage name used in metric labels and
// the sortz page.
func (s Stage) String() string {
	switch s {
	case StageQueue:
		return "queue"
	case StageBatch:
		return "batch"
	case StageEngine:
		return "engine"
	case StageRetry:
		return "retry"
	case StageCopyOut:
		return "copyout"
	}
	return "unknown"
}

// StageBreakdown is one request's per-stage wall-clock attribution.
type StageBreakdown [NumStages]time.Duration

// Sum returns the summed stage time; it should approach the request's
// end-to-end latency (the residue is scheduler handoff between hops).
func (b StageBreakdown) Sum() time.Duration {
	var t time.Duration
	for _, d := range b {
		t += d
	}
	return t
}

// tailQuantiles are the tail points the streaming estimators track.
var tailQuantiles = [...]float64{0.50, 0.95, 0.99}

// Stages aggregates request-scoped latency telemetry for one element
// type: per-stage histograms, streaming p50/p95/p99 estimators of
// end-to-end latency, the negative-duration clamp counter (which a
// healthy monotonic pipeline keeps at zero), and the optional SLO
// burn-rate tracker. Safe for concurrent use.
type Stages struct {
	mu        sync.Mutex
	elem      string
	hist      [NumStages]Histogram // stage durations, seconds
	negatives uint64               // clamped negative stage readings
	tails     [len(tailQuantiles)]*P2Quantile
	slo       *SLOTracker // nil when no objective is configured
}

// NewStages builds the per-element-type request telemetry aggregate;
// slo may be the zero SLOConfig to disable objective tracking.
func NewStages(elem string, slo SLOConfig) *Stages {
	s := &Stages{elem: elem, slo: NewSLOTracker(slo)}
	for st := range s.hist {
		s.hist[st] = NewHistogram(histBuckets)
	}
	for i, q := range tailQuantiles {
		s.tails[i] = NewP2Quantile(q)
	}
	return s
}

// Observe folds one completed request in: its stage breakdown, its
// end-to-end latency, and how many of its stage readings had to be
// clamped from negative to zero (always 0 on a healthy monotonic
// clock; counted so CI can gate on it). ok marks a served request
// (including degraded fallbacks): only those feed the tail estimators
// and the SLO window — a fast 429 must not lower p50, and a latency
// objective judges service, not refusals.
func (s *Stages) Observe(b StageBreakdown, total time.Duration, negClamped int, ok bool) {
	s.mu.Lock()
	for st := Stage(0); st < NumStages; st++ {
		s.hist[st].Observe(b[st].Seconds())
	}
	s.negatives += uint64(negClamped)
	if ok {
		for _, t := range s.tails {
			t.Observe(total.Seconds())
		}
		if s.slo != nil {
			s.slo.Observe(total)
		}
	}
	s.mu.Unlock()
}

// Quantiles returns the live p50/p95/p99 end-to-end latency estimates
// in seconds.
func (s *Stages) Quantiles() (p50, p95, p99 float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tails[0].Value(), s.tails[1].Value(), s.tails[2].Value()
}

// Negatives returns how many stage readings were clamped from
// negative.
func (s *Stages) Negatives() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.negatives
}

// StageSeconds returns one stage's total observed seconds and its
// observation count.
func (s *Stages) StageSeconds(st Stage) (seconds float64, count uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st >= NumStages {
		return 0, 0
	}
	return s.hist[st].Sum(), s.hist[st].Count()
}

// SLOReady reports readiness under the configured objective and the
// current burn rate; a Stages with no objective is always ready at
// burn 0.
func (s *Stages) SLOReady() (bool, float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.slo == nil {
		return true, 0
	}
	return s.slo.Ready()
}

// SLOConfigured returns the tracked objective and whether one exists.
func (s *Stages) SLOConfigured() (SLOConfig, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.slo == nil {
		return SLOConfig{}, false
	}
	return s.slo.Config(), true
}

// WriteProm writes the request-scoped series in the Prometheus text
// exposition format. headers controls the HELP/TYPE lines (the
// Gateway's per-element scrapes emit them once). Every series is
// emitted unconditionally — stage histograms for all five stages, the
// negative counter, the tail gauges and the SLO pair — so dashboards
// never face absent-vs-zero ambiguity.
func (s *Stages) WriteProm(w io.Writer, headers bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := NewPromWriter(w, headers)

	p.Header("parbitonic_serve_stage_seconds", "histogram", "Per-request wall time by pipeline stage (queue wait, batch coalesce, engine, retry backoff, copy-out).")
	for st := Stage(0); st < NumStages; st++ {
		p.Hist("parbitonic_serve_stage_seconds", fmt.Sprintf("elem=%q,stage=%q", s.elem, st), &s.hist[st])
	}

	p.Header("parbitonic_serve_stage_negative_total", "counter", "Stage readings clamped from negative to zero (must stay 0; a monotonic pipeline never produces one).")
	p.Printf("parbitonic_serve_stage_negative_total{elem=%q} %d\n", s.elem, s.negatives)

	p.Header("parbitonic_serve_latency_quantile_seconds", "gauge", "Streaming end-to-end latency tail estimates (P-square).")
	for i, q := range tailQuantiles {
		p.Printf("parbitonic_serve_latency_quantile_seconds{elem=%q,q=\"%g\"} %v\n", s.elem, q, sanitize(s.tails[i].Value()))
	}

	p.Header("parbitonic_serve_slo_burn_rate", "gauge", "Error-budget burn rate over the sliding window (0 when no objective is configured).")
	burn := 0.0
	var sloTotal, sloBreach float64
	if s.slo != nil {
		burn = s.slo.BurnRate()
		sloTotal, sloBreach = s.slo.Totals()
	}
	p.Printf("parbitonic_serve_slo_burn_rate{elem=%q} %v\n", s.elem, sanitize(burn))

	p.Header("parbitonic_serve_slo_requests_total", "counter", "Requests judged against the latency objective, by verdict.")
	p.Printf("parbitonic_serve_slo_requests_total{elem=%q,verdict=\"ok\"} %v\n", s.elem, sloTotal-sloBreach)
	p.Printf("parbitonic_serve_slo_requests_total{elem=%q,verdict=\"breach\"} %v\n", s.elem, sloBreach)

	return p.Err()
}
