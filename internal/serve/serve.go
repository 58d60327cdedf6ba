// Package serve turns the sorting library into a concurrent service:
// a front door that accepts many small independent Sort requests,
// coalesces them into the large runs the machinery is efficient at,
// and pushes back when it is full — the paper's coarse-grained
// N >> P regime (Ch. 3) applied to request traffic.
//
// Three mechanisms, layered:
//
//   - Pooling (PoolOf): engines are expensive to build — P workers, a
//     P×P exchange board, compiled schedules, per-processor spare
//     arrays — and cheap to reuse.
//     The pool keys engines by shape (P, backend, algorithm,
//     keys-per-processor share) and recycles them across requests, so
//     steady-state traffic pays construction ~never.
//
//   - Batching (ServerOf): requests arriving within a window
//     (Config.MaxDelay, up to Config.MaxBatch) are coalesced into ONE
//     padded sort. Every engine run is a batch; a lone request is a
//     batch of one. Each request's keys are tagged with a request index
//     in the high bits of the key, the concatenation is sorted once in
//     a buffer allocated for that run, and each request gets back a
//     view of its part of the buffer (the sorted stream is grouped by
//     tag). The LogGP rationale (§3.4): remap time is
//     T = (L+2o−g)R + G·V + (g−G)M, so B requests sorted separately
//     pay the per-remap latency term R B times over; one batched run
//     pays it once while V grows only linearly — exactly the
//     bulk-transfer regime LogGP rewards. See DESIGN.md §10 for the
//     tag-bit scheme and its correctness argument. Tagging requires
//     integer key images — uint32, uint64 and KV64 traffic batches;
//     float requests always run alone (OR-ing a tag into a float's
//     bits would reorder values).
//
//   - Backpressure (ServerOf): admission is a bounded queue. A full
//     queue rejects immediately with ErrOverloaded (typed; HTTP 429)
//     instead of queueing unboundedly, per-request contexts ride the
//     runtime's fail-safe paths (cancellation and deadlines abort
//     in-flight runs promptly), and Close drains gracefully.
//
// Every server sorts ONE element type, fixed by its type parameter;
// Server is the uint32 instantiation existing callers use, and Gateway
// fronts one server per element type behind the binary frame protocol
// and NewGatewayHandler, the one HTTP front end. Observability threads
// through internal/obs: engine runs stream spans/events into the
// configured sink, and the serve layer adds queue-depth, batch-size,
// request-latency and rejection metrics (Metrics, Prometheus text,
// labeled by element type). Chaos testing threads through
// internal/fault via the Config.Engine.WrapCharger seam; per-batch
// result verification via Config.Engine.Verify.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"time"

	"parbitonic"
	"parbitonic/element"
	"parbitonic/internal/localsort"
	"parbitonic/internal/obs"
	"parbitonic/internal/resilience"
)

// ErrOverloaded is returned (and mapped to HTTP 429) when the
// admission queue is full: the server is saturated and the caller
// should back off and retry. It is the load-shedding half of the
// backpressure design — requests are rejected at the door, never
// queued without bound.
var ErrOverloaded = errors.New("serve: overloaded, admission queue full")

// ErrClosed is returned for requests submitted after Close; in-flight
// and already-queued requests still complete (graceful drain).
var ErrClosed = errors.New("serve: server closed")

// ErrBreakerOpen is returned (and mapped to HTTP 503 with an honest
// Retry-After) when the server's circuit breaker is open: the backend
// has been failing persistently and requests fail fast instead of
// burning queue slots — unless degraded-mode fallback is enabled, in
// which case the request is served sequentially instead.
var ErrBreakerOpen = errors.New("serve: circuit breaker open, backend failing")

// Config configures a server. The zero value of every field except
// Engine.Processors is usable: defaults are applied by New.
type Config struct {
	// Engine is the template every pooled engine is built from:
	// Processors (required), Algorithm, Backend, Verify (per-batch
	// result verification), Obs (telemetry sink for every run),
	// WrapCharger (fault-injection seam), and, for the Simulated
	// backend only, Sim (the model overrides and ablation knobs; a
	// Native template must leave it zero, or New fails).
	//
	// With Engine.Auto set the shape fields become autotuner inputs
	// instead: the planner (parbitonic.PlanFor, TUNING.md) picks
	// Algorithm and Processors per request size, Processors caps the
	// candidate P (0 means GOMAXPROCS), and engines pool under the
	// plan-chosen shapes. Resolved plans are cached per padded-size
	// bucket; choices surface as the plan_chosen counter, the
	// plan-drift histogram and obs plan events.
	Engine parbitonic.Config

	// MaxBatch is the most requests coalesced into one sort run.
	// 1 disables batching; 0 means the default 16.
	MaxBatch int

	// MaxBatchKeys caps the summed key count of a batch (pre-padding);
	// a request longer than this always runs solo. 0 means 1<<20.
	MaxBatchKeys int

	// MaxDelay is the batching window: how long the dispatcher holds
	// the first request of a batch open for companions. 0 means 200µs.
	// The window is a Go timer, so its real length is the runtime's
	// timer resolution when that is coarser: on a 2-vCPU Linux host
	// every window under 1 ms (50, 200 and 500µs alike) held about
	// 1.1 ms, and that is the latency cost. The throughput gain is the
	// amortized remap/setup cost (see the package comment).
	MaxDelay time.Duration

	// QueueDepth bounds the admission queue; a full queue rejects with
	// ErrOverloaded. 0 means 256.
	QueueDepth int

	// Parallel is the number of batch executors — concurrent engine
	// runs. 0 means max(1, GOMAXPROCS / Engine.Processors), and larger
	// settings are clamped to that ceiling: each executor spins up
	// Engine.Processors goroutines, and beyond the core count extra
	// executors only thrash the scheduler (the engines' local-phase
	// compute shares one GOMAXPROCS-capped work-stealing pool already).
	// The engine pool keeps up to Parallel idle engines per shape.
	Parallel int

	// Retries is the per-request retry budget for transient engine
	// failures — contained panics and verification failures. 0 means the
	// default 2; negative disables retrying. Cancellation, deadline
	// expiry and overload are never retried.
	Retries int

	// RetryBackoff is the base backoff before the first retry; it
	// doubles per attempt with ±50% jitter, capped at 50×. 0 means 1ms.
	RetryBackoff time.Duration

	// DisableBreaker turns off the per-server circuit breaker. By
	// default every server carries one: persistent engine failures open
	// it and requests fail fast (ErrBreakerOpen) until a probe succeeds.
	DisableBreaker bool

	// Breaker tunes the circuit breaker; zero fields take the
	// resilience defaults (32-run window, 8 min samples, 50% failure
	// rate, 1s cooldown, 1 probe).
	Breaker resilience.BreakerConfig

	// Degraded enables degraded-mode fallback: when the breaker is open
	// or retries are exhausted, the request is served by a sequential
	// local sort on the caller's goroutine — correct but slow — instead
	// of failing. SortDegradable reports fallback use per request.
	Degraded bool

	// SLO is the per-server tail-latency objective: Threshold is the
	// latency bound, Target the fraction of successful requests that
	// must meet it (e.g. 50ms / 0.99). When enabled, the server tracks
	// error-budget burn rate over a sliding minute and reports
	// unreadiness (healthz 503) under sustained burn. The zero value
	// disables SLO tracking; tail quantiles are estimated regardless.
	SLO obs.SLOConfig
}

func (c Config) withDefaults() Config {
	if c.MaxBatch == 0 {
		c.MaxBatch = 16
	}
	if c.MaxBatchKeys == 0 {
		c.MaxBatchKeys = 1 << 20
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = 200 * time.Microsecond
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	// Each executor drives an engine of P virtual processors — P
	// goroutines apiece — so more than GOMAXPROCS/P executors cannot
	// add compute, only scheduler thrash: the engines' heavy tile work
	// already shares the process-wide work-stealing pool
	// (internal/workpool), whose helper lanes are capped at GOMAXPROCS
	// across all engines in flight. Explicit settings clamp to the same
	// ceiling the default uses.
	{
		p := c.Engine.Processors
		if p < 1 {
			p = 1
		}
		maxPar := runtime.GOMAXPROCS(0) / p
		if maxPar < 1 {
			maxPar = 1
		}
		if c.Parallel == 0 || c.Parallel > maxPar {
			c.Parallel = maxPar
		}
	}
	if c.Retries == 0 {
		c.Retries = 2
	} else if c.Retries < 0 {
		c.Retries = 0
	}
	return c
}

// request is one queued Sort call.
type request[E element.Elem] struct {
	keys   []E    // caller-owned; read-only until the response is sent
	maxKey uint64 // largest key order image, for the tag headroom check
	ctx    context.Context
	enq    time.Time
	id     string           // owning request ID (also in ctx; cached for hot paths)
	tr     *reqTrack        // stage-latency accumulator, owned by whoever owns the request
	res    chan response[E] // buffered 1: delivery never blocks a worker
}

// response carries a request's outcome. sorted is a view of the run's
// own buffer with its capacity capped at its length: no pooled or
// reused memory, and appending to it cannot reach another request's
// result.
type response[E element.Elem] struct {
	sorted []E
	err    error
}

// finish delivers the outcome and records the request's latency.
func (r *request[E]) finish(m *Metrics, sorted []E, err error) {
	m.observeRequest(time.Since(r.enq), err)
	r.res <- response[E]{sorted: sorted, err: err}
}

// ServerOf is the concurrent sort service for one element type:
// bounded admission queue, a batching dispatcher, Parallel executor
// workers drawing pooled engines. Create with NewOf, submit with Sort,
// shut down with Close.
type ServerOf[E element.Elem] struct {
	cfg     Config
	pool    *PoolOf[E]
	m       *Metrics
	policy  resilience.Policy
	breaker *resilience.Breaker // nil when Config.DisableBreaker
	queue   chan *request[E]
	exec    chan []*request[E]

	ctx    context.Context // canceled on Close: aborts in-flight runs' joint contexts
	cancel context.CancelFunc

	planMu sync.Mutex              // guards plans
	plans  map[int]parbitonic.Plan // Auto only: resolved plan per padded-size bucket

	mu     sync.RWMutex // guards closed vs queue sends
	closed bool
	wg     sync.WaitGroup // dispatcher + workers
}

// Server is the uint32 sort service, the shape existing callers use.
type Server = ServerOf[uint32]

// New validates cfg, applies defaults, and starts a uint32 service's
// dispatcher and executor goroutines. The returned server is ready;
// stop it with Close.
func New(cfg Config) (*Server, error) { return NewOf[uint32](cfg) }

// NewOf is New for any element type: the returned server sorts []E
// requests on pooled E-element engines.
func NewOf[E element.Elem](cfg Config) (*ServerOf[E], error) {
	cfg = cfg.withDefaults()
	p := cfg.Engine.Processors
	if cfg.Engine.Auto {
		if p != 0 && (p < 1 || p&(p-1) != 0) {
			return nil, fmt.Errorf("serve: under Engine.Auto, Processors is the plan's P cap and must be 0 or a positive power of two, got %d", p)
		}
	} else if p < 1 || p&(p-1) != 0 {
		return nil, fmt.Errorf("serve: Engine.Processors must be a positive power of two, got %d", p)
	}
	// Fail configuration errors (bad model overrides, unknown backend,
	// an unreadable machine profile) at startup, not on the first
	// request. Under Auto, engines are built per plan, so the probe
	// resolves a representative plan first.
	probe := cfg.Engine
	if cfg.Engine.Auto {
		plan, err := parbitonic.PlanFor[E](cfg.MaxBatchKeys, cfg.Engine)
		if err != nil {
			return nil, err
		}
		probe = plan.Apply(cfg.Engine)
	}
	if _, err := parbitonic.NewEngineOf[E](probe); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &ServerOf[E]{
		cfg:    cfg,
		pool:   NewPoolOf[E](cfg.Parallel),
		policy: resilience.Policy{MaxRetries: cfg.Retries, BaseDelay: cfg.RetryBackoff},
		queue:  make(chan *request[E], cfg.QueueDepth),
		exec:   make(chan []*request[E]),
		ctx:    ctx,
		cancel: cancel,
	}
	if cfg.Engine.Auto {
		s.plans = make(map[int]parbitonic.Plan)
	}
	if !cfg.DisableBreaker {
		bc := cfg.Breaker
		elem := element.TypeOf[E]().String()
		user := bc.OnTransition
		bc.OnTransition = func(from, to resilience.BreakerState) {
			s.emit(obs.EventBreaker, elem+": "+from.String()+">"+to.String(), "")
			if user != nil {
				user(from, to)
			}
		}
		s.breaker = resilience.NewBreaker(bc)
	}
	s.m = newMetrics(element.TypeOf[E]().String(), func() int { return len(s.queue) }, s.pool, cfg.SLO)
	if s.breaker != nil {
		s.m.breakerState = func() int { return int(s.breaker.State()) }
	}
	s.wg.Add(1 + cfg.Parallel)
	go s.dispatch()
	for i := 0; i < cfg.Parallel; i++ {
		go s.worker()
	}
	return s, nil
}

// Metrics returns the server's serve-level metrics (queue depth,
// batch sizes, request latency, rejections) for mounting or scraping.
func (s *ServerOf[E]) Metrics() *Metrics { return s.m }

// Pool returns the server's engine pool (for stats inspection).
func (s *ServerOf[E]) Pool() *PoolOf[E] { return s.pool }

// Sort sorts keys through the service and returns the sorted result:
// a view of its run's own buffer, capped at its length, so appending
// to it never reaches another caller's result, and holding it keeps
// only its own batch alive (a shared run holds at most
// Config.MaxBatchKeys elements). keys itself is only read, never
// mutated. The call blocks until the result is ready, ctx is done, or
// admission is refused: a full queue returns ErrOverloaded
// immediately, a closed server returns ErrClosed, and an open circuit
// breaker returns ErrBreakerOpen (unless Config.Degraded routes the
// request to the sequential fallback — Sort hides which path served
// it; use SortDegradable to see). Transient engine failures are
// retried transparently under Config.Retries. ctx cancellation and
// deadlines follow the request into the runtime — a run of one
// request is aborted through the fail-safe paths, and a run shared
// with other requests is aborted once every member has given up.
// Float NaN keys are rejected by the engine (they are unordered);
// record elements sort by key with payloads carried along.
func (s *ServerOf[E]) Sort(ctx context.Context, keys []E) ([]E, error) {
	sorted, _, err := s.SortDegradable(ctx, keys)
	return sorted, err
}

// SortDegradable is Sort plus the degraded flag: it reports whether
// the result came from the sequential fallback (breaker open or
// retries exhausted, with Config.Degraded set) rather than the
// parallel engine path. The HTTP layer surfaces the flag as the
// Degraded response field and the X-Sort-Degraded header.
func (s *ServerOf[E]) SortDegradable(ctx context.Context, keys []E) ([]E, bool, error) {
	// Adopt the caller's request ID or mint one, so every request —
	// HTTP or programmatic — is traceable end to end.
	id := obs.RequestIDFrom(ctx)
	if id == "" {
		id = obs.NewRequestID()
		ctx = obs.WithRequestID(ctx, id)
	}
	tr := newReqTrack(id, len(keys))

	sorted, err := s.sortEngine(ctx, keys, tr)
	degraded := false
	if err != nil && s.cfg.Degraded && degradable(err) {
		out, derr := s.sortDegraded(ctx, keys, tr)
		if derr == nil {
			s.m.degrade()
			s.emit(obs.EventDegraded, err.Error(), id)
			sorted, err, degraded = out, nil, true
		}
		// On derr the engine path's error stays — it is the honest one.
	}
	if !tr.abandoned {
		s.m.recordRequest(tr, err, degraded)
	}
	return sorted, degraded, err
}

// degradable reports whether a failed engine-path request may be
// served by the sequential fallback: the breaker failing fast, or a
// transient failure that survived the retry budget. Caller aborts
// (cancel, deadline), overload and validation errors are not — the
// first ones have nobody left to serve, overload must stay honest
// backpressure, and validation fails identically on any path.
func degradable(err error) bool {
	return errors.Is(err, ErrBreakerOpen) || resilience.Retryable(err)
}

// sortDegraded wraps sortSequential with observability: the fallback's
// wall time is charged to the engine stage (it IS the service time of
// this request), and a successful fallback flushes a service-level
// degraded span carrying the request ID, so the request's timeline
// shows who served it even when no processor did.
func (s *ServerOf[E]) sortDegraded(ctx context.Context, keys []E, tr *reqTrack) ([]E, error) {
	tr.reset()
	start := time.Now()
	out, err := s.sortSequential(ctx, keys)
	d := time.Since(start)
	tr.add(obs.StageEngine, d)
	tr.reset()
	if err == nil {
		if sink := s.cfg.Engine.Obs; sink != nil {
			sink.FlushSpans(-1, []obs.Span{{
				Proc:  -1,
				Phase: obs.PhaseDegraded,
				Start: 0,
				End:   float64(d) / float64(time.Microsecond),
				Wall:  time.Now().UnixNano(),
				Req:   tr.id,
			}})
		}
	}
	return out, err
}

// sortSequential is the degraded-mode path: a sequential O(n) local
// sort on the caller's goroutine — no queue slot, no engine, no
// batching. It mirrors the engine path's semantics: NaN keys are
// rejected (the fallback must not quietly accept what the engine
// refuses) and the result is freshly allocated.
func (s *ServerOf[E]) sortSequential(ctx context.Context, keys []E) ([]E, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, k := range keys {
		if element.IsNaN(k) {
			return nil, fmt.Errorf("serve: keys[%d] is NaN; NaN keys are not sortable", i)
		}
	}
	out := append([]E(nil), keys...)
	localsort.RadixSort(out)
	return out, nil
}

// emit sends a serve-level event to the configured telemetry sink.
// req carries the owning request ID(s) — comma-joined for a batch,
// "" for events that are not request-scoped (breaker transitions).
func (s *ServerOf[E]) emit(kind, detail, req string) {
	if sink := s.cfg.Engine.Obs; sink != nil {
		sink.Emit(obs.Event{Kind: kind, Proc: -1, Detail: detail, Wall: time.Now().UnixNano(), Req: req})
	}
}

// retryAfterSeconds derives the honest Retry-After hint for a refused
// request: an open breaker's remaining cooldown, or — for overload —
// the time the batcher needs to drain the current queue (one MaxDelay
// window per MaxBatch requests). Zero means no hint; the floor is 1s,
// the header's resolution.
func (s *ServerOf[E]) retryAfterSeconds(err error) int {
	var d time.Duration
	switch {
	case errors.Is(err, ErrBreakerOpen):
		if s.breaker != nil {
			d = s.breaker.RetryAfter()
		}
	case errors.Is(err, ErrOverloaded):
		batches := len(s.queue)/s.cfg.MaxBatch + 1
		d = time.Duration(batches) * s.cfg.MaxDelay
	default:
		return 0
	}
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// sortEngine is the parallel path: breaker admission, the bounded
// queue, and the batching/executor pipeline. tr travels with the
// request and accrues its stage breakdown hop by hop.
func (s *ServerOf[E]) sortEngine(ctx context.Context, keys []E, tr *reqTrack) ([]E, error) {
	if len(keys) == 0 {
		return []E{}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.breaker != nil && !s.breaker.Allow() {
		s.m.failFast()
		return nil, ErrBreakerOpen
	}
	var mx uint64
	for _, k := range keys {
		if b := element.Bits(k); b > mx {
			mx = b
		}
	}
	req := &request[E]{
		keys:   keys,
		maxKey: mx,
		ctx:    ctx,
		enq:    time.Now(),
		id:     tr.id,
		tr:     tr,
		res:    make(chan response[E], 1),
	}

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	select {
	case s.queue <- req:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.m.reject()
		s.emit(obs.EventOverload, "admission queue full", tr.id)
		return nil, ErrOverloaded
	}

	select {
	case r := <-req.res:
		return r.sorted, r.err
	case <-ctx.Done():
		// The request stays in the pipeline; the worker's send into the
		// buffered res channel cannot block, and its result is dropped.
		// The pipeline still owns the track — mark it abandoned so its
		// durations are never read concurrently.
		tr.abandoned = true
		return nil, ctx.Err()
	}
}

// Close stops admission (new Sorts get ErrClosed), drains requests
// already queued — they complete normally — waits for in-flight runs,
// and releases the workers. Safe to call once.
func (s *ServerOf[E]) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
	s.cancel()
	s.pool.Close()
	return nil
}

// dispatch is the batching loop: it pulls the head request, holds the
// window open for compatible companions, and hands the batch to an
// executor. Executor handoff is an unbuffered send, so when every
// executor is busy the dispatcher blocks and arriving requests pile
// into the bounded queue — which is where overload becomes visible as
// ErrOverloaded at the door.
func (s *ServerOf[E]) dispatch() {
	defer s.wg.Done()
	defer close(s.exec)
	var pending *request[E] // head of the NEXT batch, parked by incompatibility
	for {
		var first *request[E]
		if pending != nil {
			first, pending = pending, nil
		} else {
			r, ok := <-s.queue
			if !ok {
				return
			}
			// One monotonic hop reading per pull closes the queue stage;
			// time until the engine starts accrues to the batch stage.
			r.tr.advance(obs.StageQueue)
			first = r
		}
		if first.ctx.Err() != nil {
			first.finish(s.m, nil, first.ctx.Err())
			continue
		}
		batch := []*request[E]{first}
		if s.cfg.MaxBatch > 1 && batchable(first, s.cfg) {
			timer := time.NewTimer(s.cfg.MaxDelay)
			total := len(first.keys)
			mx := first.maxKey
			drained := false
		collect:
			for len(batch) < s.cfg.MaxBatch {
				select {
				case r, ok := <-s.queue:
					if !ok {
						drained = true
						break collect
					}
					r.tr.advance(obs.StageQueue)
					if r.ctx.Err() != nil {
						r.finish(s.m, nil, r.ctx.Err())
						continue
					}
					if !fits(batch, total, mx, r, s.cfg) {
						pending = r
						break collect
					}
					batch = append(batch, r)
					total += len(r.keys)
					if r.maxKey > mx {
						mx = r.maxKey
					}
				case <-timer.C:
					break collect
				}
			}
			timer.Stop()
			s.exec <- batch
			if drained {
				return
			}
			continue
		}
		s.exec <- batch
	}
}

// batchable reports whether a request may share a run at all: the
// element type must admit tagging (an integer key image — floats never
// batch, because OR-ing a tag into float bits reorders values), its
// tag needs at least one high bit of headroom, and its size must fit
// under the batch cap.
func batchable[E element.Elem](r *request[E], cfg Config) bool {
	switch element.TypeOf[E]() {
	case element.TF32, element.TF64:
		return false
	}
	return len(r.keys) <= cfg.MaxBatchKeys && r.maxKey < 1<<(element.KeyBits[E]()-1)
}

// fits reports whether adding r to batch keeps the tag-bit scheme
// sound: with k members, tags need b = bits.Len(k-1) high bits, so
// every member's keys must fit in the remaining KeyBits-b bits, and
// the summed size must stay under MaxBatchKeys. A tagged key may be
// the batch's largest: the padded sort pads with copies of that
// element and strips exactly the pad count of bit-equal copies, so a
// tagged record keyed like the padding stays in the result, and a
// scalar equal to the padding is interchangeable with it.
func fits[E element.Elem](batch []*request[E], total int, mx uint64, r *request[E], cfg Config) bool {
	if !batchable(r, cfg) || total+len(r.keys) > cfg.MaxBatchKeys {
		return false
	}
	b := bits.Len(uint(len(batch)))
	return max(mx, r.maxKey) < 1<<(element.KeyBits[E]()-b)
}

// worker executes batches until the dispatcher closes the feed.
func (s *ServerOf[E]) worker() {
	defer s.wg.Done()
	for batch := range s.exec {
		s.runBatch(batch)
	}
}
