// Package machine is the LogP/LogGP *simulator* backend of the SPMD
// runtime (internal/spmd): P virtual processors execute as goroutines
// with private memories and communicate through collective exchanges,
// while a per-processor virtual clock is charged using the formulas of
// §3.4 for communication and a per-element cost model for local
// computation — the distributed-memory machine the paper ran on (a
// Meiko CS-2 programmed in Split-C).
//
// The simulator therefore serves two purposes at once: the algorithms
// really execute (so correctness is exercised end to end, with true
// concurrency across the goroutines), and every run yields the model
// times, volumes, message counts and phase breakdowns that the paper's
// tables and figures report. How the keys move on the host is not
// what is charged: a remap runs the runtime's one gather path (see
// spmd.ProcOf.Remap) on both backends, and this backend only charges
// the pack, transfer and unpack phases that §3.4 prices for it. For
// running the same algorithms at real hardware speed instead, see
// internal/native, the wall-clock backend of the same runtime.
package machine

import (
	"parbitonic/element"
	"parbitonic/internal/logp"
	"parbitonic/internal/obs"
	"parbitonic/internal/spmd"
)

// The runtime types algorithms and callers program against live in
// internal/spmd; the historical names are preserved here because this
// package is where simulator users import them from.

// Proc is one virtual processor, owned by exactly one goroutine during
// Run.
type Proc = spmd.Proc

// CostModel gives the virtual cost, in model microseconds per element,
// of each local-computation routine.
type CostModel = spmd.CostModel

// Stats accumulates per-processor counters and virtual time by phase.
type Stats = spmd.Stats

// Result is what a completed SPMD run reports.
type Result = spmd.Result

// DefaultCosts returns the shipped fallback cost model for the
// simulated CS-2 (see spmd.DefaultCosts; host calibration is
// internal/tune's job).
func DefaultCosts() CostModel { return spmd.DefaultCosts() }

// Config configures a simulated machine.
type Config struct {
	P     int         // number of processors (power of two)
	Model logp.Params // LogGP communication parameters
	Costs CostModel   // per-key local computation costs (see DefaultCosts)
	Long  bool        // use long messages (LogGP) rather than per-key short messages (LogP)

	// Sink, when non-nil, receives the observability stream (spans,
	// run lifecycle, abort events) and enables pprof goroutine labels;
	// see spmd.EngineConfig.Sink.
	Sink obs.Sink

	// Labels are static telemetry labels ("alg", "backend", ...) for
	// run metadata and pprof labels.
	Labels map[string]string

	// WrapCharger, when non-nil, wraps the virtual-time charger before
	// the engine is built. This is the seam fault injection
	// (internal/fault) hooks into: the wrapper observes every phase
	// boundary of every processor.
	WrapCharger func(spmd.Charger) spmd.Charger
}

// DefaultConfig returns a Meiko-like machine with P processors and long
// messages enabled.
func DefaultConfig(p int) Config {
	return Config{P: p, Model: logp.MeikoCS2(p), Costs: DefaultCosts(), Long: true}
}

// MachineOf is a simulated P-processor distributed-memory machine over
// element type E: the shared SPMD engine driven by the virtual-time
// charger. It implements spmd.BackendOf[E]. The charger's per-key
// LogGP accounting is parameterized by the element width (see
// simCharger), so a uint32 machine charges exactly the paper's model.
type MachineOf[E element.Elem] struct {
	*spmd.EngineOf[E]
	cfg Config
}

// Machine is the uint32 machine, the element type of the paper's
// experiments.
type Machine = MachineOf[uint32]

// NewOf creates a machine over element type E. P must be a power of
// two and at least 1; invalid configurations are reported as errors.
func NewOf[E element.Elem](cfg Config) (*MachineOf[E], error) {
	if cfg.Costs.RadixPasses <= 0 {
		cfg.Costs = DefaultCosts()
	}
	var charge spmd.Charger = &simCharger{
		model: cfg.Model,
		costs: cfg.Costs,
		long:  cfg.Long,
	}
	if cfg.WrapCharger != nil {
		charge = cfg.WrapCharger(charge)
	}
	eng, err := spmd.NewEngineOf[E](spmd.EngineConfig{
		P:      cfg.P,
		Costs:  cfg.Costs,
		Long:   cfg.Long,
		Charge: charge,
		Sink:   cfg.Sink,
		Labels: cfg.Labels,
	})
	if err != nil {
		return nil, err
	}
	return &MachineOf[E]{EngineOf: eng, cfg: cfg}, nil
}

// New creates a uint32 machine; see NewOf.
func New(cfg Config) (*Machine, error) { return NewOf[uint32](cfg) }

// Config returns the machine configuration.
func (m *MachineOf[E]) Config() Config { return m.cfg }

// simCharger advances the virtual clocks: every phase costs what the
// LogGP formulas (communication) and the calibrated per-element cost
// model (computation) say it would on the modelled machine. Spans go
// through PC.Span into the observability sink.
//
// Element width enters through p.Words(): pack/unpack and wire volume
// are memory-bound, so their per-element costs scale with the
// element's size in the 4-byte keys the model was calibrated for.
// Words() is 1 for uint32, making those runs bit-identical to the
// pre-generic charger.
type simCharger struct {
	model logp.Params
	costs CostModel
	long  bool
}

func (c *simCharger) Start(*spmd.PC) {}

func (c *simCharger) Synced(*spmd.PC) {}

func (c *simCharger) Compute(p *spmd.PC, t float64) {
	p.Span(obs.PhaseCompute, p.Clock, p.Clock+t)
	p.Clock += t
	p.Stats.ComputeTime += t
}

func (c *simCharger) Pack(p *spmd.PC, n int) {
	w := n * p.Words()
	t := c.costs.Pack * float64(w) * c.costs.CacheFactor(w)
	p.Span(obs.PhasePack, p.Clock, p.Clock+t)
	p.Clock += t
	p.Stats.PackTime += t
}

func (c *simCharger) Unpack(p *spmd.PC, n int) {
	w := n * p.Words()
	t := c.costs.Unpack * float64(w) * c.costs.CacheFactor(w)
	p.Span(obs.PhaseUnpack, p.Clock, p.Clock+t)
	p.Clock += t
	p.Stats.UnpackTime += t
}

func (c *simCharger) Transfer(p *spmd.PC, volume, msgs int) {
	var t float64
	if c.long {
		t = c.model.LongRemapTime(volume*p.Words(), msgs)
	} else {
		t = c.model.ShortRemapTime(volume * p.Words())
	}
	p.Span(obs.PhaseTransfer, p.Clock, p.Clock+t)
	p.Clock += t
	p.Stats.TransferTime += t
}
