// Package native is the wall-clock backend of the SPMD runtime
// (internal/spmd): the same goroutine-per-processor algorithm bodies
// that the simulator runs, executed for real speed rather than model
// fidelity. Nothing on the hot path does model arithmetic — the
// charger only timestamps phase boundaries — each body alternates its
// own arrays across remap rounds, the collective exchange hands slices
// over zero-copy,
// and a remap gathers each new local array straight out of the peers'
// memories, so a P-processor sort is a genuine parallel sort of the
// host machine.
//
// Reporting keeps the simulator's shape: Result.Time is the measured
// wall-clock makespan in microseconds and the Stats phase fields hold
// measured wall time per phase, so the same tables, traces and
// comparisons work against either backend. What the native backend
// does NOT do is charge LogGP communication costs — transfer time here
// is the measured gather (or the near-zero cost of publishing slice
// headers), pack and unpack time stay 0 because no such pass runs, and
// synchronization is visible as barrier-wait trace spans and as the
// gap between Time and the per-phase busy totals.
package native

import (
	"context"
	"time"

	"parbitonic/element"
	"parbitonic/internal/obs"
	"parbitonic/internal/spmd"
)

// Config configures a native engine.
type Config struct {
	P int // number of processors (power of two, >= 1)

	// Sink, when non-nil, receives the observability stream (spans,
	// run lifecycle, abort events) and enables pprof goroutine labels;
	// see spmd.EngineConfig.Sink.
	Sink obs.Sink

	// Labels are static telemetry labels ("alg", "backend", ...) for
	// run metadata and pprof labels.
	Labels map[string]string

	// WrapCharger, when non-nil, wraps the wall-clock charger before
	// the engine is built. This is the seam fault injection
	// (internal/fault) hooks into: the wrapper observes every phase
	// boundary of every processor.
	WrapCharger func(spmd.Charger) spmd.Charger
}

// EngineOf is a P-worker shared-memory execution engine over element
// type E. It implements spmd.BackendOf[E].
type EngineOf[E element.Elem] struct {
	*spmd.EngineOf[E]
	ch *wallCharger
}

// Engine is the uint32 native engine, the element type of the paper's
// experiments.
type Engine = EngineOf[uint32]

// NewOf creates a native engine over element type E. P must be a power
// of two and at least 1; invalid configurations are reported as
// errors. P may exceed the host's core count — the algorithms are
// bulk-synchronous, so oversubscription costs only scheduling overhead.
func NewOf[E element.Elem](cfg Config) (*EngineOf[E], error) {
	ch := &wallCharger{}
	var charge spmd.Charger = ch
	if cfg.WrapCharger != nil {
		charge = cfg.WrapCharger(charge)
	}
	eng, err := spmd.NewEngineOf[E](spmd.EngineConfig{
		P:      cfg.P,
		Long:   true, // long-message code paths; remaps gather and count long messages
		Charge: charge,
		Sink:   cfg.Sink,
		Labels: cfg.Labels,
	})
	if err != nil {
		return nil, err
	}
	ch.marks = make([]time.Time, cfg.P)
	return &EngineOf[E]{EngineOf: eng, ch: ch}, nil
}

// New creates a uint32 native engine; see NewOf.
func New(cfg Config) (*Engine, error) { return NewOf[uint32](cfg) }

// Run executes body once per processor at native speed. Result.Time is
// the measured wall-clock duration of the whole run in microseconds;
// per-processor Stats hold measured per-phase wall time.
func (e *EngineOf[E]) Run(data [][]E, body func(p *spmd.ProcOf[E])) (spmd.Result, error) {
	return e.RunContext(context.Background(), data, body)
}

// RunContext is Run under a context: cancellation or deadline expiry
// aborts the run promptly with a typed error (see spmd.Backend), and
// the worker goroutines are joined before it returns — a canceled
// native sort leaks nothing.
func (e *EngineOf[E]) RunContext(ctx context.Context, data [][]E, body func(p *spmd.ProcOf[E])) (spmd.Result, error) {
	start := time.Now()
	res, err := e.EngineOf.RunContext(ctx, data, body)
	if err != nil {
		return spmd.Result{}, err
	}
	res.Time = time.Since(start).Seconds() * 1e6
	return res, nil
}

// wallCharger implements spmd.Charger by measuring, not modelling: each
// hook attributes the wall time elapsed since the processor's previous
// phase boundary to the phase that just ended. marks is indexed by
// processor ID; each goroutine touches only its own slot. Spans go
// through PC.Span, which feeds both the trace recorder and the
// observability sink.
type wallCharger struct {
	marks []time.Time
}

// lap returns the µs elapsed since the processor's last phase boundary
// and advances the boundary.
func (c *wallCharger) lap(p *spmd.PC) float64 {
	now := time.Now()
	dt := now.Sub(c.marks[p.ID]).Seconds() * 1e6
	c.marks[p.ID] = now
	if dt < 0 {
		return 0
	}
	return dt
}

func (c *wallCharger) Start(p *spmd.PC) { c.marks[p.ID] = time.Now() }

// Synced resets the phase boundary after a barrier so time spent
// waiting for peers (already folded into Clock by the barrier's
// max-reduction) is not double-counted into the next busy phase.
func (c *wallCharger) Synced(p *spmd.PC) { c.marks[p.ID] = time.Now() }

func (c *wallCharger) Compute(p *spmd.PC, _ float64) {
	dt := c.lap(p)
	p.Span(obs.PhaseCompute, p.Clock, p.Clock+dt)
	p.Clock += dt
	p.Stats.ComputeTime += dt
}

// Pack and Unpack are no-ops: a native remap gathers in one pass with
// no pack or unpack pass of its own, so its time stays in the
// transfer lap and PackTime and UnpackTime stay 0.
func (c *wallCharger) Pack(*spmd.PC, int)   {}
func (c *wallCharger) Unpack(*spmd.PC, int) {}

func (c *wallCharger) Transfer(p *spmd.PC, _, _ int) {
	dt := c.lap(p)
	p.Span(obs.PhaseTransfer, p.Clock, p.Clock+dt)
	p.Clock += dt
	p.Stats.TransferTime += dt
}
