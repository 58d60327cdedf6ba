// Package spmd is the abstract SPMD runtime every parallel algorithm
// in this module is written against: P processors with private
// memories, bulk-synchronous collective exchanges, and remap routing
// driven by addr.RemapPlan — the Split-C programming model of the
// paper, minus any commitment to *how* time is accounted.
//
// What a run costs is delegated to a Charger, which is what makes the
// runtime pluggable:
//
//   - internal/machine supplies the LogP/LogGP virtual-time charger —
//     every phase advances a per-processor model clock by the formulas
//     of §3.4, reproducing the paper's tables and figures;
//   - internal/native supplies the wall-clock charger — no model
//     arithmetic on the hot path, phases are timed with the real
//     clock, and the same algorithms run at hardware speed.
//
// Both backends implement Backend and report through the same Stats
// and Result shapes, so callers switch between "predict what the 1996
// Meiko would do" and "sort as fast as this machine allows" without
// touching algorithm code. They also move data the same way: a remap
// (ProcOf.Remap) is one gather on either backend, and only the charges
// differ — the simulator prices the §3.4 pack/transfer/unpack pipeline
// while the wall-clock charger measures the gather.
//
// The data plane is generic over the element layer: EngineOf[E] and
// ProcOf[E] carry any parbitonic/element type through the exchange
// board and remap phases, while the per-processor core
// every Charger sees (PC) stays non-generic — time accounting never
// depends on the element type beyond its width, which the engine
// captures once at construction (see PC.Words). The Engine, Proc and
// Backend aliases pin E = uint32, the paper's native element.
package spmd

import (
	"context"

	"parbitonic/element"
	"parbitonic/internal/intbits"
)

// CostModel gives the virtual cost, in model microseconds per element,
// of each local-computation routine. The defaults are calibrated so the
// simulated per-key times land in the same regime as the paper's Meiko
// CS-2 measurements (see DESIGN.md §2); only relative magnitudes carry
// meaning. Wall-clock backends run with DefaultCosts: the charge
// helpers still compute model values from it, and the wall-clock
// charger ignores them and measures instead.
//
// The per-element values are calibrated for the paper's 4-byte keys.
// Wider elements charge proportionally more: every memory-bound charge
// scales by the element's size in 32-bit words, and radix passes by
// the key width in 32-bit units (see the PC charge helpers), so a
// uint32 run is numerically unchanged while a uint64 run pays for
// moving twice the bytes and digesting twice the key bits.
type CostModel struct {
	RadixPass       float64 // one counting pass of LSD radix sort, per key
	RadixPasses     int     // passes needed for 32-bit keys
	Merge           float64 // linear merge / bitonic-merge-sort work, per key
	CompareExchange float64 // one simulated network step, per key
	Pack            float64 // packing into long messages, per key
	Unpack          float64 // unpacking from long messages, per key

	// CacheAlpha adds a relative penalty per doubling of the local data
	// size beyond 2^LgCacheKeys keys, modelling the cache misses the
	// paper observes ("when we increase the number of elements, a higher
	// percentage of the total execution time is spent during the local
	// computation phases... due to cache misses", §5.3). Every
	// computation charge is multiplied by
	// 1 + CacheAlpha * max(0, lg n - LgCacheKeys).
	CacheAlpha  float64 // relative penalty per doubling past the cache size
	LgCacheKeys int     // lg of the local key count that still fits in cache
}

// DefaultCosts returns the shipped fallback cost model for the
// simulated Meiko CS-2 — fixed constants, not measurements of this
// host (host measurement lives in internal/tune; run
// bitonic-sort -calibrate to produce a machine profile). The per-key
// values are model microseconds per local element, back-solved from
// the paper's per-key tables: pack/unpack reproduce Table 5.4's
// 0.35/0.13 µs per key at P=16 over 5 remaps; radix/merge/
// compare-exchange place the three algorithms of Table 5.1 in the
// measured ratios; the cache term reproduces the per-key growth with
// n. LgCacheKeys = 18 is the CS-2 node's 1 MB external cache in
// 4-byte keys.
func DefaultCosts() CostModel {
	return CostModel{
		RadixPass:       0.50,
		RadixPasses:     3,
		Merge:           0.90,
		CompareExchange: 0.55,
		Pack:            0.55,
		Unpack:          0.25,
		CacheAlpha:      0.045,
		LgCacheKeys:     18,
	}
}

// CacheFactor is the cache-miss multiplier for memory-bound work over n
// local keys. Callers working in wider elements pass the footprint in
// 4-byte words (n times the element's word count), since LgCacheKeys
// measures the cache in 4-byte keys.
func (c CostModel) CacheFactor(n int) float64 {
	if c.CacheAlpha == 0 {
		return 1
	}
	lg := intbits.Log2(n)
	if lg <= c.LgCacheKeys {
		return 1
	}
	return 1 + c.CacheAlpha*float64(lg-c.LgCacheKeys)
}

// Stats accumulates per-processor counters and per-phase time. Under
// the simulator the times are model microseconds of virtual clock;
// under the native backend they are measured wall-clock microseconds.
type Stats struct {
	Remaps       int // collective remap operations participated in
	MessagesSent int // messages to *other* processors
	VolumeSent   int // elements sent to other processors

	ComputeTime  float64 // local sorts, merges, compare-exchange steps
	PackTime     float64 // packing keys into long messages
	TransferTime float64 // collective exchanges (the LogGP wire term)
	UnpackTime   float64 // unpacking received messages into place
}

func (s *Stats) add(o Stats) {
	s.Remaps += o.Remaps
	s.MessagesSent += o.MessagesSent
	s.VolumeSent += o.VolumeSent
	s.ComputeTime += o.ComputeTime
	s.PackTime += o.PackTime
	s.TransferTime += o.TransferTime
	s.UnpackTime += o.UnpackTime
}

// Result is what a completed SPMD run reports.
type Result struct {
	Time    float64 // makespan: the maximum final processor clock, µs
	PerProc []Stats // per-processor stats, indexed by Proc.ID
	Sum     Stats   // per-processor stats summed over all processors
	Mean    Stats   // per-processor averages (the machine is symmetric)
}

// TimePerKey returns Time divided by the total key count, the paper's
// "execution time per key" metric.
func (r Result) TimePerKey(totalKeys int) float64 { return r.Time / float64(totalKeys) }

// Charger decides what every phase of a run costs. The simulator's
// charger advances virtual clocks by the LogGP formulas; the native
// charger timestamps phases with the real clock. Implementations own
// the updates to p.Clock, p.Stats time fields and the phase spans;
// the runtime calls them at every phase boundary.
//
// Chargers see the element-independent processor core (*PC), never the
// generic processor: counts are in elements, and width-dependent
// scaling reads p.Words — one charger implementation serves every
// element instantiation.
type Charger interface {
	// Start is called on the processor's own goroutine before the body.
	Start(p *PC)
	// Compute charges local computation whose modelled cost is t model
	// µs (wall-clock chargers ignore t and measure instead).
	Compute(p *PC, t float64)
	// Pack charges the long-message packing pass over n local elements.
	Pack(p *PC, n int)
	// Unpack charges the long-message unpacking pass over n local
	// elements.
	Unpack(p *PC, n int)
	// Transfer charges one collective exchange round in which the
	// processor sent `volume` elements in `msgs` messages to other
	// processors.
	Transfer(p *PC, volume, msgs int)
	// Synced is called after every barrier release (the processor's
	// clock has been advanced to the round maximum).
	Synced(p *PC)
}

// BackendOf is a complete execution engine for SPMD algorithm bodies
// over element type E. core.Sort and the psort sorters accept any
// backend; internal/machine (LogGP simulation) and internal/native
// (wall-clock execution) provide the two implementations.
//
// Both run methods share the engine's fail-safe semantics: a processor
// panic is contained and returned as a *PanicError (never re-panicked),
// and a canceled or expired context aborts the run promptly — blocked
// processors are released through the poisoned barrier — with an error
// wrapping ErrCanceled or ErrDeadline. The backend remains usable
// after any failure.
type BackendOf[E element.Elem] interface {
	// P returns the processor count.
	P() int
	// Run executes body once per processor, concurrently, SPMD style,
	// and aggregates the results. data[i] becomes processor i's initial
	// local memory (may be nil). Equivalent to RunContext with a
	// background context.
	Run(data [][]E, body func(p *ProcOf[E])) (Result, error)
	// RunContext is Run under a context: cancellation or deadline
	// expiry aborts the run and returns a typed error instead of
	// hanging at the next barrier.
	RunContext(ctx context.Context, data [][]E, body func(p *ProcOf[E])) (Result, error)
	// Data returns the final local data of every processor after a Run.
	Data() [][]E
	// ReleaseData drops the backend's references to the last run's
	// data, message headers included; Data() then returns nil slices
	// until the next Run.
	ReleaseData()
}

// Backend is the uint32 backend interface, the element type of the
// paper's experiments.
type Backend = BackendOf[uint32]
