package spmd

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"parbitonic/element"
	"parbitonic/internal/intbits"
	"parbitonic/internal/obs"
)

// EngineConfig configures the shared SPMD substrate.
type EngineConfig struct {
	P      int       // number of processors (power of two)
	Costs  CostModel // model costs of the charge helpers; zero = DefaultCosts
	Long   bool      // long messages (remaps charge pack/unpack phases)
	Charge Charger   // time-accounting policy (simulated or wall-clock)

	// Sink, when non-nil, receives the observability stream: run
	// lifecycle, per-processor phase spans (buffered per processor and
	// flushed at barriers — no hot-path locks), and abort events. The
	// engine also applies runtime/pprof labels (proc, phase, plus
	// Labels) to every processor goroutine so CPU profiles attribute
	// samples to bitonic phases. Nil disables all of it at the cost of
	// one pointer check per phase boundary.
	Sink obs.Sink

	// Labels are static telemetry labels ("alg", "backend", ...)
	// attached to run metadata and pprof goroutine labels. Read-only
	// after NewEngine.
	Labels map[string]string
}

// EngineOf is the concrete runtime both backends share, over element
// type E: the processor set, the exchange board and the clock-reducing
// barrier. Backend packages wrap it with their Charger and any
// backend-specific reporting.
type EngineOf[E element.Elem] struct {
	*state
	board [][]delivery[E] // board[src][dst], rewritten every exchange round
	procs []*ProcOf[E]

	// dataOut and statsOut are the recycled Data() and Result.PerProc
	// backing arrays, so a steady-state run allocates neither; both are
	// valid until the engine's next run.
	dataOut  [][]E
	statsOut []Stats

	// The persistent worker set: spawned once on the first run and fed
	// one runReq per processor per run, so steady-state runs spawn no
	// goroutines (a per-run `go` statement heap-allocates its argument
	// frame). Workers hold only the channels and the exited group —
	// never the engine — so an abandoned engine is collectable and
	// life's finalizer releases its workers; Close does so
	// deterministically. runWG joins the run's bodies; watchWG joins
	// the context watcher.
	work    chan runReq[E]
	life    *engineLife
	exited  *sync.WaitGroup
	runWG   sync.WaitGroup
	watchWG sync.WaitGroup
}

// runReq is one processor's share of a run, handed to a parked worker.
type runReq[E element.Elem] struct {
	p    *ProcOf[E]
	body func(*ProcOf[E])
}

// engineLife owns the workers' stop channel. It is referenced by the
// engine only — never by the workers — so when the engine becomes
// unreachable the finalizer on engineLife runs (the engine's internal
// proc↔engine cycle carries no finalizer and collects normally) and
// the parked workers exit. Forgetting Close therefore leaks nothing
// permanently.
type engineLife struct {
	stop chan struct{}
	once sync.Once
}

func (l *engineLife) shutdown() { l.once.Do(func() { close(l.stop) }) }

// Engine is the uint32 engine, the element type of the paper's
// experiments.
type Engine = EngineOf[uint32]

type delivery[E element.Elem] struct {
	data []E
}

// ProcOf is one processor of the runtime over element type E, owned by
// exactly one goroutine during Run. The embedded PC supplies identity,
// clock, stats and the charge/observability services.
type ProcOf[E element.Elem] struct {
	PC
	Data []E // local elements; algorithms read and replace freely

	// Scratch is per-processor working state owned by the algorithm
	// body. The engine never touches it, and it survives across runs,
	// so bodies that run repeatedly on one engine can park reusable
	// tables and spare arrays here instead of rebuilding them every run.
	Scratch any

	e    *EngineOf[E]
	outs [][]E // the Outbox: destination table, cleared by every Exchange
	srcs [][]E // gather-source scratch, reused across remap rounds
	in   [][]E // received-message table, rewritten by every Exchange and PublishInPlace
}

// Proc is the uint32 processor, the element type of the paper's
// experiments.
type Proc = ProcOf[uint32]

// NewEngineOf creates the substrate for element type E. P must be a
// power of two and at least 1; cfg.Charge must be non-nil.
func NewEngineOf[E element.Elem](cfg EngineConfig) (*EngineOf[E], error) {
	if !intbits.IsPow2(cfg.P) {
		return nil, fmt.Errorf("spmd: P=%d must be a positive power of two", cfg.P)
	}
	if cfg.Charge == nil {
		return nil, fmt.Errorf("spmd: EngineConfig.Charge must be set")
	}
	if cfg.Costs.RadixPasses <= 0 {
		cfg.Costs = DefaultCosts()
	}
	st := &state{
		p:        cfg.P,
		long:     cfg.Long,
		costs:    cfg.Costs,
		charge:   cfg.Charge,
		sink:     cfg.Sink,
		labels:   cfg.Labels,
		bar:      newBarrier(cfg.P),
		words:    element.Words[E](),
		keyScale: element.KeyBits[E]() / 32,
	}
	e := &EngineOf[E]{state: st}
	e.board = make([][]delivery[E], cfg.P)
	for i := range e.board {
		e.board[i] = make([]delivery[E], cfg.P)
	}
	e.procs = make([]*ProcOf[E], cfg.P)
	for i := range e.procs {
		p := &ProcOf[E]{PC: PC{ID: i, st: st}, e: e}
		p.ops = p
		e.procs[i] = p
	}
	return e, nil
}

// NewEngine creates a uint32 substrate; see NewEngineOf.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	return NewEngineOf[uint32](cfg)
}

// P returns the processor count.
func (e *EngineOf[E]) P() int { return e.p }

// abort records the first failure cause and unwinds every processor:
// blocked ones are released by the poisoned barrier, running ones
// notice at their next phase boundary.
func (st *state) abort(cause error) {
	st.abortMu.Lock()
	first := st.abortErr == nil
	if first {
		st.abortErr = cause
	}
	st.abortMu.Unlock()
	st.aborting.Store(true)
	st.bar.poison()
	if first && st.sink != nil {
		st.sink.Emit(abortEvent(cause))
	}
}

// abortEvent classifies an abort cause into a typed observability
// event so operators can count cancellations, deadline expiries and
// panics separately.
func abortEvent(cause error) obs.Event {
	ev := obs.Event{Kind: obs.EventAbort, Proc: -1, Wall: time.Now().UnixNano()}
	if cause != nil {
		ev.Detail = cause.Error()
	}
	var pe *PanicError
	switch {
	case errors.Is(cause, ErrCanceled):
		ev.Kind = obs.EventCancel
	case errors.Is(cause, ErrDeadline):
		ev.Kind = obs.EventDeadline
	case errors.As(cause, &pe):
		ev.Kind = obs.EventPanic
		ev.Proc = pe.Proc
	}
	return ev
}

// recoverState repairs the engine after an aborted run — the barrier is
// un-poisoned, the exchange board drained of any half-published
// deliveries, and every processor's Outbox cleared (an abort between
// filling it and its Exchange leaves stale out-slices that the NEXT
// run's exchange would deliver as phantom messages), along
// with its received-message table, which may still reach a peer's view
// of the caller's keys — so the engine is immediately reusable.
func (e *EngineOf[E]) recoverState() {
	e.bar.reset()
	for i := range e.board {
		for j := range e.board[i] {
			e.board[i][j] = delivery[E]{}
		}
	}
	for _, p := range e.procs {
		clear(p.outs)
		clear(p.in)
	}
	e.aborting.Store(false)
	e.abortErr = nil
}

// Run executes body once per processor, concurrently, SPMD style, and
// aggregates the results. It is RunContext with a background context.
func (e *EngineOf[E]) Run(data [][]E, body func(p *ProcOf[E])) (Result, error) {
	return e.RunContext(context.Background(), data, body)
}

// RunContext executes body once per processor, concurrently, SPMD
// style, and aggregates the results. data[i] becomes processor i's
// initial local memory (may be nil).
//
// Failure semantics: if a processor body panics, the panic is captured
// with its stack into a *PanicError, every other processor is promptly
// unwound (the barrier is poisoned, so nobody blocks forever on a dead
// peer), and the error is returned — the panic does not propagate. If
// ctx is canceled or its deadline expires mid-run, the run aborts the
// same way and the returned error wraps ErrCanceled or ErrDeadline
// (and the context's own error). After any failure the engine is
// reusable; the processors' Data is unspecified.
func (e *EngineOf[E]) RunContext(ctx context.Context, data [][]E, body func(p *ProcOf[E])) (Result, error) {
	if data != nil && len(data) != e.p {
		return Result{}, fmt.Errorf("spmd: Run got %d data slices for %d processors", len(data), e.p)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, ctxError(err)
	}
	e.aborting.Store(false)
	e.abortErr = nil

	runStart := time.Now()
	if e.sink != nil {
		keys := 0
		for _, d := range data {
			keys += len(d)
		}
		// The owning request IDs ride the context from the serve layer;
		// carrying them on RunMeta is what lets a trace or log line of
		// this run join the per-request telemetry upstream.
		e.sink.RunStart(obs.RunMeta{
			P: e.p, Keys: keys, Labels: e.labels, Start: runStart,
			Requests: obs.RequestIDsFrom(ctx),
		})
	}

	// The watcher turns a context cancellation into an engine abort; it
	// is torn down before RunContext returns so no goroutine outlives
	// the call. Contexts that cannot be canceled need no watcher (and
	// no channel: an uncancellable steady-state run allocates nothing
	// here).
	var watchDone chan struct{}
	if ctx.Done() != nil {
		watchDone = make(chan struct{})
		e.watchWG.Add(1)
		go e.watchCtx(ctx, watchDone)
	}

	e.ensureWorkers()
	for i := range e.procs {
		p := e.procs[i]
		p.Clock = 0
		p.Stats = Stats{}
		if data != nil {
			p.Data = data[i]
		} else {
			p.Data = nil
		}
		e.runWG.Add(1)
		// The channel is buffered to e.p, so the sends never block and
		// each of the e.p parked workers takes exactly one request (a
		// worker busy with one request blocks on the run's barriers
		// until every peer request is taken).
		e.work <- runReq[E]{p: p, body: body}
	}
	e.runWG.Wait()
	if watchDone != nil {
		close(watchDone)
		e.watchWG.Wait()
	}

	// All goroutines are joined: abortErr is stable without the mutex,
	// but take it anyway to keep the race detector's model exact.
	e.abortMu.Lock()
	err := e.abortErr
	e.abortMu.Unlock()
	if e.sink != nil {
		// Residual spans recorded since the last barrier (single-threaded
		// here: all workers are joined).
		for _, p := range e.procs {
			p.flushObs()
		}
	}
	if err != nil {
		if e.sink != nil {
			e.sink.RunEnd(obs.RunSummary{
				Err:         err.Error(),
				WallSeconds: time.Since(runStart).Seconds(),
			})
		}
		e.recoverState()
		return Result{}, err
	}

	var res Result
	if cap(e.statsOut) < e.p {
		e.statsOut = make([]Stats, e.p)
	}
	res.PerProc = e.statsOut[:e.p]
	for i, p := range e.procs {
		res.PerProc[i] = p.Stats
		res.Sum.add(p.Stats)
		if p.Clock > res.Time {
			res.Time = p.Clock
		}
	}
	res.Mean = res.Sum
	f := float64(e.p)
	res.Mean.Remaps /= e.p
	res.Mean.MessagesSent /= e.p
	res.Mean.VolumeSent /= e.p
	res.Mean.ComputeTime /= f
	res.Mean.PackTime /= f
	res.Mean.TransferTime /= f
	res.Mean.UnpackTime /= f
	if e.sink != nil {
		keys := 0
		for _, p := range e.procs {
			keys += len(p.Data)
		}
		e.sink.RunEnd(obs.RunSummary{
			Makespan:     res.Time,
			WallSeconds:  time.Since(runStart).Seconds(),
			Keys:         keys,
			Remaps:       res.Sum.Remaps,
			Volume:       res.Sum.VolumeSent,
			Messages:     res.Sum.MessagesSent,
			ComputeTime:  res.Sum.ComputeTime,
			PackTime:     res.Sum.PackTime,
			TransferTime: res.Sum.TransferTime,
			UnpackTime:   res.Sum.UnpackTime,
		})
	}
	return res, nil
}

// watchCtx aborts the run when ctx is canceled; done tears it down.
func (e *EngineOf[E]) watchCtx(ctx context.Context, done chan struct{}) {
	defer e.watchWG.Done()
	select {
	case <-ctx.Done():
		e.state.abort(ctxError(ctx.Err()))
	case <-done:
	}
}

// ensureWorkers lazily spawns the engine's persistent processor
// workers on the first run.
func (e *EngineOf[E]) ensureWorkers() {
	if e.work != nil {
		return
	}
	e.work = make(chan runReq[E], e.p)
	e.life = &engineLife{stop: make(chan struct{})}
	e.exited = new(sync.WaitGroup)
	e.exited.Add(e.p)
	for i := 0; i < e.p; i++ {
		go procWorker(e.work, e.life.stop, e.exited)
	}
	runtime.SetFinalizer(e.life, (*engineLife).shutdown)
}

// Close releases the engine's persistent worker goroutines and waits
// for them to exit. It is idempotent, must not overlap a run in
// flight, and the engine must not be used afterwards. Engines that are
// simply dropped release their workers via finalizer once collected;
// Close exists for callers that need the release to be deterministic
// (pools, goroutine-leak accounting).
func (e *EngineOf[E]) Close() {
	if e.life == nil {
		return // workers were never started
	}
	runtime.SetFinalizer(e.life, nil)
	e.life.shutdown()
	e.exited.Wait()
}

// procWorker is one parked processor worker. It deliberately receives
// only the channels and the exit group — taking the engine (or
// anything that references it) would keep an abandoned engine
// reachable from this goroutine's stack forever and defeat the
// finalizer-based release.
func procWorker[E element.Elem](work <-chan runReq[E], stop <-chan struct{}, exited *sync.WaitGroup) {
	defer exited.Done()
	for {
		select {
		case req := <-work:
			req.p.e.execProc(req.p, req.body)
		case <-stop:
			return
		}
	}
}

// execProc is one processor's turn of a run: observability setup, the
// charger's clock start, then the algorithm body, with panics contained
// into an engine abort.
func (e *EngineOf[E]) execProc(p *ProcOf[E], body func(*ProcOf[E])) {
	defer e.runWG.Done()
	defer func() {
		if r := recover(); r != nil {
			if _, unwinding := r.(poisonPanic); unwinding {
				p.abortSpan()
				return // abort propagation; the cause is already recorded
			}
			p.abortSpan()
			e.state.abort(&PanicError{Proc: p.ID, Value: r, Stack: debug.Stack()})
		}
	}()
	p.initObs()
	e.charge.Start(&p.PC)
	body(p)
}

// Data returns the final local data of every processor after a Run.
// The returned header array is recycled: it is valid until the
// engine's next Run (the element slices themselves are the
// processors' own and follow their ownership rules).
func (e *EngineOf[E]) Data() [][]E {
	if cap(e.dataOut) < e.p {
		e.dataOut = make([][]E, e.p)
	}
	out := e.dataOut[:e.p]
	for i, p := range e.procs {
		out[i] = p.Data
	}
	return out
}

// ReleaseData drops the engine's references to the last run's local
// data: every processor's Data and received-message table, the
// exchange board, and the recycled Data() header array. A caller that
// lent the run memory it owns (a sort in the caller's slice) releases
// it before handing that memory back, so nothing in the engine reaches
// it between runs.
func (e *EngineOf[E]) ReleaseData() {
	for _, p := range e.procs {
		p.Data = nil
		clear(p.in)
	}
	for _, row := range e.board {
		clear(row)
	}
	clear(e.dataOut)
}

// ---- per-processor generic services ----

// DataLen returns the processor's local element count (the procOps
// seam the fault injector's corruption plans go through).
func (p *ProcOf[E]) DataLen() int { return len(p.Data) }

// CorruptKey flips the top key bit of local element i through the
// element's order image, preserving any payload: the generic form of
// Data[i] ^= 1<<31 on uint32 data.
func (p *ProcOf[E]) CorruptKey(i int) {
	v := p.Data[i]
	bits := element.Bits(v) ^ 1<<(element.KeyBits[E]()-1)
	p.Data[i] = element.FromBits[E](bits, element.Aux(v))
}

// Outbox returns the processor's destination table, one entry per
// processor, all nil: a body sets out[q] to the message for q and
// passes the table to Exchange, which clears it. PairExchange fills
// the same table, and an aborted run's entries are cleared before the
// engine runs again.
func (p *ProcOf[E]) Outbox() [][]E {
	if p.outs == nil {
		p.outs = make([][]E, p.e.p)
	}
	return p.outs
}
