// Package parbitonic is a Go reproduction of "Optimizing Parallel
// Bitonic Sort" (Ionescu, UCSB 1996 / IPPS 1997): a communication- and
// computation-optimal parallel bitonic sort for coarse-grained
// machines, together with the baselines and comparator sorts the paper
// evaluates against, all running on a pluggable SPMD runtime: by
// default a simulated distributed-memory machine with LogP/LogGP
// virtual-time accounting, or — with Config{Backend: Native} — a real
// shared-memory parallel execution at wall-clock speed.
//
// The quickest way in:
//
//	keys := workload-like random data
//	res, err := parbitonic.Sort(keys, parbitonic.Config{Processors: 16})
//	// keys is now sorted; res carries the model time and communication
//	// counters (remaps, volume, messages, phase breakdown).
//
// To sort fast rather than to model, run the same algorithm natively:
//
//	res, err := parbitonic.Sort(keys, parbitonic.Config{
//		Processors: 8, Backend: parbitonic.Native,
//	})
//	// res.Time is now measured wall-clock microseconds.
//
// The paper's algorithm is Config{Algorithm: SmartBitonic} (the
// default): it remaps data between "smart" layouts so that exactly
// lg(N/P) network steps execute locally after every remap — the
// provable maximum — and replaces all local compare-exchange work with
// linear-time sorts of bitonic sequences.
package parbitonic

import (
	"context"
	"fmt"
	"math"

	"parbitonic/element"
	"parbitonic/internal/bitseq"
	"parbitonic/internal/logp"
	"parbitonic/internal/machine"
	"parbitonic/internal/obs"
	"parbitonic/internal/schedule"
	"parbitonic/internal/spmd"
	"parbitonic/internal/verify"
)

// Backend selects the execution backend the algorithms run on.
type Backend int

const (
	// Simulated runs on the virtual-time LogP/LogGP simulator: Result
	// times are model microseconds on the modelled machine (the paper's
	// Meiko CS-2 by default). This is the default.
	Simulated Backend = iota
	// Native runs the same SPMD algorithm bodies as real goroutines at
	// wall-clock speed on the host: Result times are measured
	// microseconds, and no model arithmetic runs on the hot path.
	Native
)

func (b Backend) String() string {
	switch b {
	case Simulated:
		return "simulated"
	case Native:
		return "native"
	}
	return "unknown"
}

// Algorithm selects the parallel sorting algorithm.
type Algorithm int

const (
	// SmartBitonic is the paper's contribution: the minimum-remap smart
	// data layout (Chapter 3) with optimized local computation
	// (Chapter 4).
	SmartBitonic Algorithm = iota
	// CyclicBlockedBitonic alternates blocked and cyclic layouts
	// ([CDMS94], §2.3) — two remaps per stage. Requires N >= P².
	CyclicBlockedBitonic
	// BlockedMergeBitonic keeps a fixed blocked layout with pairwise
	// remote compare-split steps ([BLM+91], §5.3).
	BlockedMergeBitonic
	// SampleSort is the one-pass parallel sample sort of [AISS95],
	// the §5.5 comparator.
	SampleSort
	// RadixSort is the parallel LSD radix sort of [AISS95], the other
	// §5.5 comparator.
	RadixSort
)

func (a Algorithm) String() string {
	switch a {
	case SmartBitonic:
		return "smart-bitonic"
	case CyclicBlockedBitonic:
		return "cyclic-blocked-bitonic"
	case BlockedMergeBitonic:
		return "blocked-merge-bitonic"
	case SampleSort:
		return "sample-sort"
	case RadixSort:
		return "radix-sort"
	}
	return "unknown"
}

// Config configures a sort. The zero value plus a Processors count is a
// sensible default: the smart algorithm on the simulator, with the
// paper's default model (see SimOptions).
type Config struct {
	// Processors is the machine size P (power of two, >= 1): simulated
	// processors under the Simulated backend, worker goroutines under
	// Native. Under Auto it is instead the cap on the processor counts
	// the planner may choose (0 = GOMAXPROCS).
	Processors int

	Algorithm Algorithm

	// Auto lets the cost-model planner choose Algorithm and Processors
	// per sort, from the data size, the element type and the machine
	// profile (PlanFor; see TUNING.md). Sim.Strategy becomes HeadRemap,
	// the strategy plans are scored for. Backend is
	// respected, not chosen: plans are scored in the backend's own
	// time unit. Auto applies to the package-level Sort/SortPadded
	// functions — engines are fixed-shape, so NewEngineOf rejects it;
	// resolve explicitly with PlanFor + Plan.Apply to pool engines.
	Auto bool

	// ProfilePath overrides where Auto reads the machine profile;
	// empty means the default user-cache location (tune.DefaultPath),
	// falling back to shipped defaults when no profile exists or it is
	// from another format version. Only
	// Native plans read it: Simulated plans are scored by the
	// simulator's own cost model.
	ProfilePath string

	// Backend selects where the sort runs: the virtual-time simulator
	// (default) or the native wall-clock runtime.
	Backend Backend

	// Sim holds the simulator's model and ablation options. They apply
	// to the Simulated backend only: NewEngineOf rejects a Native
	// config whose Sim is not the zero value.
	Sim SimOptions

	// Verify runs a post-sort invariant check over the output: every
	// processor's keys ascending, processor boundaries in order, and
	// multiset preservation against an input checksum taken before the
	// sort. A violation is returned as a *VerifyError naming the first
	// broken invariant. Costs one extra O(N) pass over input and
	// output.
	Verify bool

	// Obs, when non-nil, receives the run's full observability stream:
	// run metadata at start, per-processor phase spans flushed at every
	// barrier, runtime events (aborts, injected faults, verification
	// failures), and a run summary at the end. It also enables pprof
	// goroutine labels (proc/phase/alg/backend) on the worker
	// goroutines. Ready-made sinks live in internal/obs: ChromeTrace
	// (Perfetto-loadable trace JSON, plus the ASCII Gantt timeline;
	// exported here as TraceRecorder), Metrics (Prometheus/expvar
	// export), SlogSink (structured logs); combine with obs.Multi. Nil
	// costs nothing on the hot path.
	Obs Sink

	// Observe, when non-nil, is called after a successful sort with the
	// model-drift report: the run's measured communication metrics
	// paired against the paper's §3.4 closed-form predictions. See
	// SortReport.
	Observe func(SortReport)

	// WrapCharger, when non-nil, wraps the backend's phase charger
	// before the engine is built — the seam deterministic fault
	// injection (internal/fault) hooks into, so chaos can be driven
	// through the public API and through long-lived pooled engines
	// (internal/serve). The parameter types live in an internal
	// package: this field is for module-internal tooling; external
	// callers leave it nil.
	WrapCharger func(spmd.Charger) spmd.Charger
}

// SimOptions are the paper's ablation knobs and model overrides, which
// only the Simulated backend has a meaning for. The zero value is the
// paper's default: long messages, optimized local computation with
// separate pack/unpack passes, Head remaps, Meiko-CS-2-like LogGP
// parameters and the default cost model. The native backend always
// runs the fastest implementation (smart sorts fused, see
// FusePackUnpack) and measures instead of modelling.
type SimOptions struct {
	// ShortMessages switches the remaps to elementwise transfers
	// (§3.3's baseline); the default is long messages.
	ShortMessages bool

	// SimulateSteps replaces the optimized local computation with the
	// step-by-step compare-exchange simulation (the Chapter 4 ablation;
	// bitonic algorithms only).
	SimulateSteps bool

	// FusePackUnpack folds packing/unpacking into the local sorts
	// (§4.3; SmartBitonic without step simulation only). In the usual
	// regime (lgP(lgP+1)/2 <= lg(N/P)) this runs the fully fused
	// FullSort implementation — one p-way merge per remap, no separate
	// pack/unpack passes at all (§4.1, Figure 4.8); outside it the
	// optimized implementation runs with the fusion accounted in the
	// cost model.
	FusePackUnpack bool

	// Strategy shifts the smart remaps relative to the step stream
	// (Lemma 5). Non-Head strategies imply SimulateSteps (the optimized
	// local computation is derived for the Head alignment).
	Strategy RemapStrategy

	// Model overrides the LogGP machine parameters; nil uses
	// Meiko-CS-2-like defaults.
	Model *ModelParams

	// Costs overrides the local-computation cost model; nil uses the
	// calibrated defaults.
	Costs *machine.CostModel
}

// firstSet names the first field of s that differs from its zero
// value, or returns "" when s is the zero value.
func (s SimOptions) firstSet() string {
	switch {
	case s.ShortMessages:
		return "ShortMessages"
	case s.SimulateSteps:
		return "SimulateSteps"
	case s.FusePackUnpack:
		return "FusePackUnpack"
	case s.Strategy != HeadRemap:
		return "Strategy"
	case s.Model != nil:
		return "Model"
	case s.Costs != nil:
		return "Costs"
	}
	return ""
}

// Sink is the observability consumer interface; see Config.Obs and
// internal/obs.
type Sink = obs.Sink

// KV64 is the key+payload record element (64-bit key, 64-bit payload),
// re-exported from parbitonic/element. Sorting []KV64 orders records
// by K and carries V along; see the element package for the full list
// of sortable element types (uint32, uint64, float32, float64, KV64).
type KV64 = element.KV64

// VerifyError reports a failed Config.Verify check: the sort returned,
// but its output violates a result invariant (Invariant is
// "local-sorted", "boundary-order" or "multiset"). Match with
// errors.As. When verification fails the input slice's contents are
// the corrupted output — do not use them.
type VerifyError = verify.Error

// TraceRecorder collects a run's per-processor phase spans when passed
// as Config.Obs; its Timeline method renders them as a Gantt view and
// WaitShare reports the barrier-wait fraction. The zero value is ready
// to use.
type TraceRecorder = obs.ChromeTrace

// RemapStrategy selects how the smart remaps are shifted relative to
// the network's step stream (Lemma 5).
type RemapStrategy int

const (
	// HeadRemap executes lg n steps after every remap except the last —
	// the paper's default.
	HeadRemap RemapStrategy = iota
	// TailRemap executes the leftover steps after the first remap; it
	// transfers no more data than HeadRemap (Lemma 5).
	TailRemap
	// MiddleRemap1 splits the leftover across both ends, adding a remap.
	MiddleRemap1
	// MiddleRemap2 shifts the remaps left without changing their count.
	MiddleRemap2
)

func (s RemapStrategy) schedule() schedule.Strategy {
	switch s {
	case TailRemap:
		return schedule.Tail
	case MiddleRemap1:
		return schedule.Middle1
	case MiddleRemap2:
		return schedule.Middle2
	default:
		return schedule.Head
	}
}

// ModelParams are the LogGP parameters of the simulated machine, in
// model microseconds (per key for GKey and ShortKey). See
// internal/logp for the formulas.
type ModelParams struct {
	L, O, Gap, GKey, ShortKey float64
}

// Result reports a completed sort.
type Result struct {
	// Algorithm that ran.
	Algorithm Algorithm
	// Keys is the total number of keys sorted.
	Keys int
	// Time is the execution time in microseconds: under the Simulated
	// backend, modelled time (the makespan over all processors' virtual
	// clocks); under Native, measured wall-clock time of the run.
	Time float64
	// Remaps, VolumeSent and MessagesSent are per-processor averages of
	// the three communication metrics of §3.4.
	Remaps       int
	VolumeSent   int
	MessagesSent int
	// ComputeTime, PackTime, TransferTime, UnpackTime break down the
	// per-processor average time by phase (Figures 5.4 and 5.6) —
	// modelled under Simulated, measured under Native (where transfers
	// are zero-copy shared-memory handoffs, so TransferTime is tiny).
	ComputeTime  float64
	PackTime     float64
	TransferTime float64
	UnpackTime   float64
}

// TimePerKey returns the paper's per-key metric: Time / Keys.
func (r Result) TimePerKey() float64 {
	if r.Keys == 0 {
		return 0
	}
	return r.Time / float64(r.Keys)
}

// CommTime returns the communication part of the per-processor time.
func (r Result) CommTime() float64 { return r.PackTime + r.TransferTime + r.UnpackTime }

// Sort sorts keys in place (ascending) on a simulated machine with
// cfg.Processors processors and returns the modelled execution
// statistics. len(keys) must be a multiple of Processors with a
// power-of-two per-processor share (the bitonic network sorts
// power-of-two sizes; the paper assumes the same). It is SortContext
// with a background context.
func Sort[E element.Elem](keys []E, cfg Config) (Result, error) {
	return SortContext(context.Background(), keys, cfg)
}

// SortContext is Sort under a context. Cancellation or deadline expiry
// aborts the run promptly — blocked processors are released rather
// than left hanging at a barrier — and the returned error wraps
// spmd.ErrCanceled or spmd.ErrDeadline; a panicking processor surfaces
// as a *spmd.PanicError instead of a panic. After any failure the
// contents of keys are unspecified.
//
// Each call constructs a fresh execution engine; callers that sort
// repeatedly should build one with NewEngine (or pool them, see
// internal/serve) to amortize the setup.
func SortContext[E element.Elem](ctx context.Context, keys []E, cfg Config) (Result, error) {
	if cfg.Auto {
		resolved, err := resolveAuto[E](cfg, len(keys), true)
		if err != nil {
			return Result{}, err
		}
		cfg = resolved
	}
	e, err := NewEngineOf[E](cfg)
	if err != nil {
		return Result{}, err
	}
	defer e.Close()
	return e.SortContext(ctx, keys)
}

// validateOverrides rejects Sim options on the native backend, which
// has no model to shape, and non-finite or negative Model and Costs
// overrides before they can poison a run: a NaN model parameter makes
// every virtual time NaN, and a negative cost runs clocks backwards —
// both previously surfaced only as absurd Results.
func validateOverrides(cfg Config) error {
	if f := cfg.Sim.firstSet(); f != "" && cfg.Backend == Native {
		return fmt.Errorf("parbitonic: Sim.%s applies to the Simulated backend only; a Native config takes the zero Sim", f)
	}
	if m := cfg.Sim.Model; m != nil {
		for _, f := range []struct {
			name string
			v    float64
		}{{"L", m.L}, {"O", m.O}, {"Gap", m.Gap}, {"GKey", m.GKey}, {"ShortKey", m.ShortKey}} {
			if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
				return fmt.Errorf("parbitonic: Sim.Model.%s = %v must be finite and non-negative", f.name, f.v)
			}
		}
	}
	if c := cfg.Sim.Costs; c != nil {
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"RadixPass", c.RadixPass}, {"Merge", c.Merge},
			{"CompareExchange", c.CompareExchange}, {"Pack", c.Pack},
			{"Unpack", c.Unpack}, {"CacheAlpha", c.CacheAlpha},
		} {
			if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
				return fmt.Errorf("parbitonic: Sim.Costs.%s = %v must be finite and non-negative", f.name, f.v)
			}
		}
		if c.RadixPasses < 0 {
			return fmt.Errorf("parbitonic: Sim.Costs.RadixPasses = %d must be non-negative", c.RadixPasses)
		}
		if c.LgCacheKeys < 0 {
			return fmt.Errorf("parbitonic: Sim.Costs.LgCacheKeys = %d must be non-negative", c.LgCacheKeys)
		}
	}
	return nil
}

func machineConfig(cfg Config) machine.Config {
	mc := machine.DefaultConfig(cfg.Processors)
	mc.Long = !cfg.Sim.ShortMessages
	if m := cfg.Sim.Model; m != nil {
		mc.Model = logp.Params{
			L: m.L, O: m.O, Gap: m.Gap,
			GKey: m.GKey, ShortKey: m.ShortKey, P: cfg.Processors,
		}
	}
	if cfg.Sim.Costs != nil {
		mc.Costs = *cfg.Sim.Costs
	}
	return mc
}

// SortPadded sorts keys of arbitrary length: the input is padded with
// copies of its largest element up to the next length divisible into power-of-two
// per-processor shares (PaddedSize), sorted with Sort, and the padding
// stripped. Result statistics refer to the padded run.
func SortPadded[E element.Elem](keys []E, cfg Config) (Result, error) {
	if cfg.Auto {
		resolved, err := resolveAuto[E](cfg, len(keys), false)
		if err != nil {
			return Result{}, err
		}
		cfg = resolved
	}
	e, err := NewEngineOf[E](cfg)
	if err != nil {
		return Result{}, err
	}
	defer e.Close()
	return e.SortPaddedContext(context.Background(), keys)
}

// ---- re-exported bitonic-sequence utilities (Chapter 4 primitives) ----

// IsBitonic reports whether s is a bitonic sequence (Definition 1).
func IsBitonic[E element.Elem](s []E) bool { return bitseq.IsBitonic(s) }

// MinIndexBitonic returns the index of a minimum of the bitonic
// sequence s, in O(log n) time for duplicate-free input (Algorithm 2).
func MinIndexBitonic[E element.Elem](s []E) int { return bitseq.MinIndex(s) }

// SortBitonicSequence sorts the bitonic sequence src into dst in O(n)
// time (Lemma 9). dst and src must have equal length and not overlap.
func SortBitonicSequence[E element.Elem](dst, src []E, ascending bool) {
	bitseq.SortBitonic(dst, src, ascending)
}

// RemapInfo describes one remap of the smart schedule, for inspection.
type RemapInfo struct {
	Stage, Step int    // paper coordinates: stage lgn+K, step S
	Kind        string // "inside", "crossing" or "last"
	StepsAfter  int    // network steps executed locally after the remap
	BitsChanged int    // Lemma 3's N_BitsChanged
	BitPattern  string // 'P'/'L' rendering of the layout (Figure 3.4)
}

// SmartSchedule returns the smart remap schedule for sorting 2^lgN keys
// on 2^lgP processors (Head strategy) — the data behind Figures 3.3
// and 3.4.
func SmartSchedule(lgN, lgP int) []RemapInfo {
	lgn := lgN - lgP
	var out []RemapInfo
	for _, r := range schedule.New(lgN, lgP, schedule.Head) {
		l := *r.Layout
		l.Name = ""
		out = append(out, RemapInfo{
			Stage:       lgn + r.K,
			Step:        r.S,
			Kind:        r.Kind.String(),
			StepsAfter:  r.StepsAfter,
			BitsChanged: r.BitsChanged,
			BitPattern:  l.String(),
		})
	}
	return out
}

// Predict returns the analytic LogP/LogGP communication metrics and
// times for the three bitonic remapping strategies (§3.4) without
// running anything: the (R, V, M) table and the total communication
// time under the given message mode.
type Prediction struct {
	Strategy            string
	Remaps, Volume, Msg int
	CommTime            float64
}

// Predict evaluates the §3.4 analysis for sorting 2^lgN keys on 2^lgP
// processors under Meiko-like parameters (or model overrides).
func Predict(lgN, lgP int, longMessages bool, model *ModelParams) []Prediction {
	p := logp.MeikoCS2(1 << uint(lgP))
	if model != nil {
		p = logp.Params{L: model.L, O: model.O, Gap: model.Gap, GKey: model.GKey, ShortKey: model.ShortKey, P: 1 << uint(lgP)}
	}
	n := 1 << uint(lgN-lgP)
	metrics := []logp.Metrics{logp.Blocked(lgP, n), logp.CyclicBlocked(lgP, n), logp.Smart(lgN, lgP)}
	var out []Prediction
	for _, m := range metrics {
		t := m.ShortTime(p)
		if longMessages {
			t = m.LongTime(p)
		}
		out = append(out, Prediction{Strategy: m.Name, Remaps: m.R, Volume: m.V, Msg: m.M, CommTime: t})
	}
	return out
}
