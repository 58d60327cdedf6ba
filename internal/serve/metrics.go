package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"parbitonic/internal/obs"
	"parbitonic/internal/spmd"
	"parbitonic/internal/verify"
)

// recentKeep and slowestKeep size the sortz request rings: the last N
// completed requests and the N slowest seen since start.
const (
	recentKeep  = 64
	slowestKeep = 16
)

// RequestRecord is one completed request as the ops surface shows it:
// identity, size, outcome, and the per-stage latency breakdown.
// Durations encode to JSON as nanoseconds.
type RequestRecord struct {
	// ID is the request's ID (client-supplied or minted).
	ID string `json:"id"`
	// Keys is the request's key count.
	Keys int `json:"keys"`
	// Outcome is the request's outcome label ("ok", "overloaded", ...).
	Outcome string `json:"outcome"`
	// Degraded marks requests served by the sequential fallback.
	Degraded bool `json:"degraded"`
	// Retried marks requests whose engine run was retried.
	Retried bool `json:"retried"`
	// Start is the wall-clock admission instant.
	Start time.Time `json:"start"`
	// Total is the end-to-end latency, admission to record.
	Total time.Duration `json:"total"`
	// Stages is the per-stage breakdown; it sums to ~Total.
	Stages obs.StageBreakdown `json:"stages"`
}

// ActiveBatch is one engine run currently in flight: which request IDs
// it coalesced and how many keys it carries.
type ActiveBatch struct {
	// Seq is the run's sequence number (monotonic per server).
	Seq uint64 `json:"seq"`
	// Requests lists the coalesced member request IDs.
	Requests []string `json:"requests"`
	// Keys is the batch's summed key count, pre-padding.
	Keys int `json:"keys"`
	// Started is when the run entered flight.
	Started time.Time `json:"started"`
}

// latencyBuckets are the request-latency histogram upper bounds in
// seconds: log-spaced from 100µs (a pooled in-memory hit) to 10s.
var latencyBuckets = []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 10}

// sizeBuckets are the batch-size histogram upper bounds in requests.
var sizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// driftBuckets are the plan-drift histogram upper bounds: the
// measured/predicted engine-time ratio of Auto runs, bracketed around
// 1.0 (an exact prediction). Mass above 2 means the planner's machine
// profile no longer describes the host — re-calibrate (TUNING.md).
var driftBuckets = []float64{0.5, 0.75, 0.9, 1, 1.1, 1.25, 1.5, 2, 4}

// planShape identifies one autotuner-chosen execution shape for the
// plan_chosen counter labels.
type planShape struct {
	alg string
	p   int
}

// poolStatser decouples Metrics from the pool's element type: every
// PoolOf instantiation satisfies it.
type poolStatser interface {
	Stats() PoolStats
}

// Metrics aggregates the serve layer's operational signals — the ones
// engine-run telemetry (internal/obs) cannot see because they live in
// front of the runtime: admission rejections, queue depth, batch
// sizes, end-to-end request latency. Scrape via WriteProm (the HTTP
// handler merges it into /metrics); every series carries an elem label
// naming the server's element type, so the per-type servers behind a
// Gateway scrape as one valid exposition. All methods are safe for
// concurrent use.
type Metrics struct {
	mu       sync.Mutex
	elem     string             // element-type label value (u32, u64, ...)
	requests map[string]float64 // outcome -> count
	batches  float64
	batched  float64       // requests that shared a run with >= 1 companion
	retries  float64       // engine runs retried after a transient failure
	degraded float64       // requests served by the sequential fallback
	latency  obs.Histogram // seconds, admission to response
	size     obs.Histogram // requests per batch

	planKinds map[planShape]float64 // Auto runs by plan-chosen shape
	planDrift obs.Histogram         // measured/predicted engine time, native Auto runs

	queueDepth   func() int // sampled at scrape time
	breakerState func() int // sampled at scrape time; nil = no breaker
	pool         poolStatser

	stages *obs.Stages // request-scoped stage/tail/SLO telemetry; own locking

	recent    [recentKeep]RequestRecord // ring of the last completed requests
	recentPos int
	recentN   int
	slowest   []RequestRecord // the slowest requests seen, descending by Total

	active   map[uint64]ActiveBatch // engine runs in flight, by sequence
	batchSeq uint64
}

func newMetrics(elem string, queueDepth func() int, pool poolStatser, slo obs.SLOConfig) *Metrics {
	return &Metrics{
		elem: elem,
		requests: map[string]float64{
			"ok": 0, "overloaded": 0, "canceled": 0, "deadline": 0,
			"verify-failure": 0, "breaker-open": 0, "error": 0,
		},
		latency:    obs.NewHistogram(latencyBuckets),
		size:       obs.NewHistogram(sizeBuckets),
		planKinds:  make(map[planShape]float64),
		planDrift:  obs.NewHistogram(driftBuckets),
		queueDepth: queueDepth,
		pool:       pool,
		stages:     obs.NewStages(elem, slo),
		active:     make(map[uint64]ActiveBatch),
	}
}

// outcome classifies a completed request's error for the counter
// label set (pre-registered at zero in newMetrics so absent series
// never alias to zero series in alerts).
func outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrBreakerOpen):
		return "breaker-open"
	case errors.Is(err, spmd.ErrCanceled), errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, spmd.ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	}
	// errors.As moves its target to the heap; declaring it only on the
	// error path keeps a successful request allocation-free.
	var verr *verify.Error
	if errors.As(err, &verr) {
		return "verify-failure"
	}
	return "error"
}

func (m *Metrics) observeRequest(d time.Duration, err error) {
	m.mu.Lock()
	m.requests[outcome(err)]++
	m.latency.Observe(d.Seconds())
	m.mu.Unlock()
}

func (m *Metrics) reject() {
	m.mu.Lock()
	m.requests["overloaded"]++
	m.mu.Unlock()
}

// failFast counts a request refused by an open circuit breaker.
func (m *Metrics) failFast() {
	m.mu.Lock()
	m.requests["breaker-open"]++
	m.mu.Unlock()
}

// retry counts one engine-run retry of a transient failure.
func (m *Metrics) retry() {
	m.mu.Lock()
	m.retries++
	m.mu.Unlock()
}

// degrade counts one request served by the sequential fallback.
func (m *Metrics) degrade() {
	m.mu.Lock()
	m.degraded++
	m.mu.Unlock()
}

// planChoose counts one engine run executed under an autotuner-chosen
// plan shape (Config.Engine.Auto).
func (m *Metrics) planChoose(alg string, p int) {
	m.mu.Lock()
	m.planKinds[planShape{alg: alg, p: p}]++
	m.mu.Unlock()
}

// planObserve records the measured/predicted engine-time ratio of one
// successful native Auto run: 1.0 means the planner's cost model was
// exact, above 1 the run was slower than predicted.
func (m *Metrics) planObserve(ratio float64) {
	m.mu.Lock()
	m.planDrift.Observe(ratio)
	m.mu.Unlock()
}

// PlanChosenCount returns how many engine runs executed under the
// given autotuner-chosen shape (algorithm name as parbitonic renders
// it, processor count). Always zero without Engine.Auto.
func (m *Metrics) PlanChosenCount(alg string, p int) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.planKinds[planShape{alg: alg, p: p}]
}

// PlanDrift returns the count and sum of the plan-drift ratio
// observations (successful native Auto runs); sum/count is the mean
// measured/predicted ratio.
func (m *Metrics) PlanDrift() (count uint64, sum float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.planDrift.Count(), m.planDrift.Sum()
}

// recordRequest folds one completed request's stage track into the
// request-scoped telemetry: stage histograms, tail estimators, the SLO
// window, and the sortz recent/slowest rings. Called by the submitting
// goroutine at SortDegradable exit (never for abandoned requests, whose
// tracks the pipeline still owns).
func (m *Metrics) recordRequest(tr *reqTrack, err error, degraded bool) {
	total := tr.total()
	m.stages.Observe(tr.dur, total, tr.neg, err == nil)
	rec := RequestRecord{
		ID:       tr.id,
		Keys:     tr.keys,
		Outcome:  outcome(err),
		Degraded: degraded,
		Retried:  tr.dur[obs.StageRetry] > 0,
		Start:    tr.wallStart,
		Total:    total,
		Stages:   tr.dur,
	}
	m.mu.Lock()
	m.recent[m.recentPos] = rec
	m.recentPos = (m.recentPos + 1) % recentKeep
	if m.recentN < recentKeep {
		m.recentN++
	}
	i := sort.Search(len(m.slowest), func(i int) bool { return m.slowest[i].Total < rec.Total })
	if i < slowestKeep {
		m.slowest = append(m.slowest, RequestRecord{})
		copy(m.slowest[i+1:], m.slowest[i:])
		m.slowest[i] = rec
		if len(m.slowest) > slowestKeep {
			m.slowest = m.slowest[:slowestKeep]
		}
	}
	m.mu.Unlock()
}

// batchStart registers an engine run entering flight and returns its
// sequence number for batchEnd.
func (m *Metrics) batchStart(ids []string, keys int) uint64 {
	m.mu.Lock()
	m.batchSeq++
	seq := m.batchSeq
	m.active[seq] = ActiveBatch{
		Seq: seq, Requests: append([]string(nil), ids...),
		Keys: keys, Started: time.Now(),
	}
	m.mu.Unlock()
	return seq
}

// batchEnd removes a completed engine run from the active set.
func (m *Metrics) batchEnd(seq uint64) {
	m.mu.Lock()
	delete(m.active, seq)
	m.mu.Unlock()
}

// Stages returns the request-scoped stage/tail/SLO telemetry.
func (m *Metrics) Stages() *obs.Stages { return m.stages }

// Elem returns the element-type label the server's series carry.
func (m *Metrics) Elem() string { return m.elem }

// RecentRequests returns the last completed requests, newest first.
func (m *Metrics) RecentRequests() []RequestRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]RequestRecord, 0, m.recentN)
	for i := 0; i < m.recentN; i++ {
		out = append(out, m.recent[(m.recentPos-1-i+2*recentKeep)%recentKeep])
	}
	return out
}

// SlowestRequests returns the slowest completed requests since start,
// slowest first; never nil, so an idle server's sortz JSON lists [].
func (m *Metrics) SlowestRequests() []RequestRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]RequestRecord{}, m.slowest...)
}

// ActiveBatches returns the engine runs currently in flight, oldest
// first.
func (m *Metrics) ActiveBatches() []ActiveBatch {
	m.mu.Lock()
	out := make([]ActiveBatch, 0, len(m.active))
	for _, b := range m.active {
		out = append(out, b)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

func (m *Metrics) observeBatch(size int) {
	m.mu.Lock()
	m.batches++
	if size > 1 {
		m.batched += float64(size)
	}
	m.size.Observe(float64(size))
	m.mu.Unlock()
}

// RequestCount returns the count of requests with the given outcome
// ("ok", "overloaded", "canceled", "deadline", "verify-failure",
// "error").
func (m *Metrics) RequestCount(outcome string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.requests[outcome]
}

// BatchCount returns (batches executed, requests that shared a batch).
func (m *Metrics) BatchCount() (batches, batchedRequests float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.batches, m.batched
}

// RetryCount returns how many engine runs were retried.
func (m *Metrics) RetryCount() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.retries
}

// DegradedCount returns how many requests the sequential fallback
// served.
func (m *Metrics) DegradedCount() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.degraded
}

// WriteProm writes the serve metrics in the Prometheus text exposition
// format (version 0.0.4).
func (m *Metrics) WriteProm(w io.Writer) error {
	return m.writeProm(w, true)
}

// writeProm is WriteProm with the HELP/TYPE headers optional: when
// several per-element servers scrape into one response (Gateway), only
// the first may emit headers — a metric name must carry at most one
// TYPE line per exposition.
func (m *Metrics) writeProm(w io.Writer, headers bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := obs.NewPromWriter(w, headers)
	elemLabel := fmt.Sprintf("elem=%q", m.elem)

	p.Header("parbitonic_serve_requests_total", "counter", "Sort requests by outcome.")
	keys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p.Printf("parbitonic_serve_requests_total{elem=%q,outcome=%q} %v\n", m.elem, k, m.requests[k])
	}

	p.Header("parbitonic_serve_queue_depth", "gauge", "Requests waiting in the admission queue (sampled at scrape).")
	p.Printf("parbitonic_serve_queue_depth{elem=%q} %d\n", m.elem, m.queueDepth())

	p.Header("parbitonic_serve_batches_total", "counter", "Engine runs executed (a batch of size 1 is a solo run).")
	p.Printf("parbitonic_serve_batches_total{elem=%q} %v\n", m.elem, m.batches)

	p.Header("parbitonic_serve_batched_requests_total", "counter", "Requests that shared a run with at least one companion.")
	p.Printf("parbitonic_serve_batched_requests_total{elem=%q} %v\n", m.elem, m.batched)

	p.Header("parbitonic_serve_retries_total", "counter", "Engine runs retried after a transient failure.")
	p.Printf("parbitonic_serve_retries_total{elem=%q} %v\n", m.elem, m.retries)

	p.Header("parbitonic_serve_degraded_total", "counter", "Requests served by the sequential degraded-mode fallback.")
	p.Printf("parbitonic_serve_degraded_total{elem=%q} %v\n", m.elem, m.degraded)

	if len(m.planKinds) > 0 {
		p.Header("parbitonic_serve_plan_chosen_total", "counter", "Engine runs by autotuner-chosen plan shape (Config.Engine.Auto).")
		shapes := make([]planShape, 0, len(m.planKinds))
		for k := range m.planKinds {
			shapes = append(shapes, k)
		}
		sort.Slice(shapes, func(i, j int) bool {
			if shapes[i].alg != shapes[j].alg {
				return shapes[i].alg < shapes[j].alg
			}
			return shapes[i].p < shapes[j].p
		})
		for _, k := range shapes {
			p.Printf("parbitonic_serve_plan_chosen_total{elem=%q,alg=%q,p=\"%d\"} %v\n", m.elem, k.alg, k.p, m.planKinds[k])
		}
		p.Header("parbitonic_serve_plan_drift_ratio", "histogram", "Measured/predicted engine time of successful Auto runs (native backend).")
		p.Hist("parbitonic_serve_plan_drift_ratio", elemLabel, &m.planDrift)
	}

	if m.breakerState != nil {
		p.Header("parbitonic_serve_breaker_state", "gauge", "Circuit breaker position (0 closed, 1 open, 2 half-open).")
		p.Printf("parbitonic_serve_breaker_state{elem=%q} %d\n", m.elem, m.breakerState())
	}

	p.Header("parbitonic_serve_batch_requests", "histogram", "Requests coalesced per engine run.")
	p.Hist("parbitonic_serve_batch_requests", elemLabel, &m.size)

	p.Header("parbitonic_serve_request_seconds", "histogram", "End-to-end request latency, admission to response.")
	p.Hist("parbitonic_serve_request_seconds", elemLabel, &m.latency)

	ps := m.pool.Stats()
	p.Header("parbitonic_serve_pool_gets_total", "counter", "Engine checkouts from the pool.")
	p.Printf("parbitonic_serve_pool_gets_total{elem=%q} %d\n", m.elem, ps.Gets)
	p.Header("parbitonic_serve_pool_hits_total", "counter", "Checkouts served without constructing an engine.")
	p.Printf("parbitonic_serve_pool_hits_total{elem=%q} %d\n", m.elem, ps.Hits)
	p.Header("parbitonic_serve_pool_idle_engines", "gauge", "Engines currently parked in the pool.")
	p.Printf("parbitonic_serve_pool_idle_engines{elem=%q} %d\n", m.elem, ps.Idle)
	p.Header("parbitonic_serve_quarantined_engines_total", "counter", "Engines destroyed instead of recycled after an unhealthy run.")
	p.Printf("parbitonic_serve_quarantined_engines_total{elem=%q} %d\n", m.elem, ps.Quarantined)
	p.Header("parbitonic_serve_evicted_engines_total", "counter", "Idle engines evicted by a per-shape failure streak.")
	p.Printf("parbitonic_serve_evicted_engines_total{elem=%q} %d\n", m.elem, ps.Evicted)

	if err := p.Err(); err != nil {
		return err
	}
	return m.stages.WriteProm(w, headers)
}
