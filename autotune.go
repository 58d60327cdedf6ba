package parbitonic

import (
	"fmt"
	"runtime"
	"time"

	"parbitonic/element"
	"parbitonic/internal/intbits"
	"parbitonic/internal/obs"
	"parbitonic/internal/tune"
)

// Plan is one autotuner decision: the execution shape the cost model
// predicts fastest for a given data size and element type, plus the
// prediction itself. Plans come from PlanFor (explicitly) or from
// Config.Auto (implicitly, per Sort call); apply one with Apply.
//
// Predicted times are microseconds in the backend's own unit — wall
// clock for Native (from the machine profile, see internal/tune and
// TUNING.md), model time for Simulated (the simulator's own cost
// model, so the plan ranking matches what simulated runs would
// report). The two are never compared against each other.
type Plan struct {
	Algorithm  Algorithm
	Processors int
	Backend    Backend
	Strategy   RemapStrategy
	// KeysPerProc is the padded per-processor share the score assumed
	// (PaddedSize(keys, Processors) / Processors).
	KeysPerProc int
	// PredictedUS = ComputeUS + CommUS: the predicted per-processor
	// time in microseconds.
	PredictedUS float64
	ComputeUS   float64
	// CommUS is the predicted communication time. For a Native plan it
	// is synchronization: at P >= 2 one measured parallel run's fixed
	// cost plus the measured barrier round trip times the barriers its
	// R remaps cross, and zero at P=1 (a native remap's data movement
	// is in ComputeUS); for a Simulated plan it is the §3.4 closed
	// form.
	CommUS float64
	// R, V and M are the §3.4 communication metrics the score used:
	// remaps, volume (elements) and messages per processor.
	R, V, M int
	// ProfileSource is "calibrated" when a machine profile was found
	// and "fallback" when the shipped defaults scored the plan (no
	// profile, or one from another format version) — run
	// bitonic-sort -calibrate to replace fallbacks with measurements.
	// Simulated plans read no profile and always report "fallback".
	ProfileSource string
}

// String renders the plan compactly.
func (p Plan) String() string {
	s := ""
	if p.Strategy != HeadRemap {
		s = fmt.Sprintf("/%v", p.Strategy.schedule())
	}
	return fmt.Sprintf("%v P=%d %v%s predicted=%.0fµs (%s profile)",
		p.Algorithm, p.Processors, p.Backend, s, p.PredictedUS, p.ProfileSource)
}

// Apply returns cfg specialized to this plan: Processors, Algorithm
// and Sim.Strategy replaced by the plan's choices and Auto cleared,
// every other field (Backend, Verify, telemetry sinks, the other Sim
// options) preserved. Native plans always choose HeadRemap, the zero
// Strategy. The result is a normal fixed-shape Config, usable with
// NewEngineOf.
func (p Plan) Apply(cfg Config) Config {
	cfg.Auto = false
	cfg.Processors = p.Processors
	cfg.Algorithm = p.Algorithm
	cfg.Sim.Strategy = p.Strategy
	return cfg
}

// PlanFor scores every candidate plan for sorting totalKeys elements
// of type E and returns the predicted-fastest one. cfg supplies the
// constraints: Backend fixes which backend candidates run on (plans
// are never compared across backends), Processors caps the candidate
// P (0 means GOMAXPROCS; Native plans are additionally clamped to
// GOMAXPROCS, since oversubscribed goroutines cannot deliver the
// parallel speedup the per-processor model predicts), and ProfilePath
// overrides the machine profile location of a Native plan (empty
// means the default cache path, falling back to shipped defaults when
// no profile exists or it is from another format version; Simulated
// plans never read it). Ties break
// deterministically: smaller P, then algorithm declaration order.
func PlanFor[E element.Elem](totalKeys int, cfg Config) (Plan, error) {
	return planFor(totalKeys, element.TypeOf[E](), cfg, 0)
}

// planFor is PlanFor over a runtime element.Type, with an optional
// additional cap on P (0 = none) for callers whose key count must
// divide exactly.
func planFor(totalKeys int, t element.Type, cfg Config, maxPCap int) (Plan, error) {
	// Simulated scores come from the simulator's own cost model and
	// never read the machine profile, so only native plans load it: a
	// stale or corrupt file cannot change or fail a simulated plan.
	var prof *tune.Profile
	if cfg.Backend == Native {
		var err error
		if prof, _, err = tune.LoadOrFallback(cfg.ProfilePath); err != nil {
			return Plan{}, fmt.Errorf("parbitonic: machine profile: %w", err)
		}
	}
	maxP := cfg.Processors
	if maxP <= 0 {
		maxP = runtime.GOMAXPROCS(0)
	}
	if maxPCap > 0 && maxP > maxPCap {
		maxP = maxPCap
	}
	// On the native backend every predicted cost — kernels and channel
	// copies alike — is CPU work, so P beyond the schedulable cores
	// only adds time-slicing overhead the per-processor model cannot
	// see. Clamp the candidates rather than let the planner predict
	// parallel speedup the host cannot deliver. (Simulated plans model
	// a machine that really has P processors, so they are not clamped.)
	if cfg.Backend == Native {
		if c := runtime.GOMAXPROCS(0); maxP > c {
			maxP = c
		}
	}
	backend := tune.BackendSimulated
	if cfg.Backend == Native {
		backend = tune.BackendNative
	}
	pl := &tune.Planner{Profile: prof, MaxP: maxP, Backend: backend}
	tp, err := pl.Plan(totalKeys, t)
	if err != nil {
		return Plan{}, err
	}
	return planFromTune(tp, cfg.Backend)
}

// planFromTune converts the internal planner's plan to the public
// shape.
func planFromTune(tp tune.Plan, backend Backend) (Plan, error) {
	var alg Algorithm
	switch tp.Algorithm {
	case tune.AlgSmart:
		alg = SmartBitonic
	case tune.AlgCyclicBlocked:
		alg = CyclicBlockedBitonic
	case tune.AlgBlockedMerge:
		alg = BlockedMergeBitonic
	case tune.AlgSampleSort:
		alg = SampleSort
	case tune.AlgRadixSort:
		alg = RadixSort
	default:
		return Plan{}, fmt.Errorf("parbitonic: planner returned unknown algorithm %q", tp.Algorithm)
	}
	strat := HeadRemap
	switch tp.Strategy {
	case "tail":
		strat = TailRemap
	case "middle1":
		strat = MiddleRemap1
	case "middle2":
		strat = MiddleRemap2
	}
	return Plan{
		Algorithm:     alg,
		Processors:    tp.Processors,
		Backend:       backend,
		Strategy:      strat,
		KeysPerProc:   tp.KeysPerProc,
		PredictedUS:   tp.PredictedUS,
		ComputeUS:     tp.ComputeUS,
		CommUS:        tp.CommUS,
		R:             tp.R,
		V:             tp.V,
		M:             tp.M,
		ProfileSource: tp.Source,
	}, nil
}

// resolveAuto replaces an Auto config with the planner's choice for
// this key count. strict callers (Sort, whose length must divide
// exactly) additionally cap P so the per-processor share stays a
// power of two of at least 2 — for a power-of-two length that is
// P <= len/2; a length Sort would reject anyway resolves to P=1 and
// fails with Sort's usual shape error. The resolved config carries a
// plan event into cfg.Obs and a plan-time drift quantity into
// cfg.Observe reports.
func resolveAuto[E element.Elem](cfg Config, total int, strict bool) (Config, error) {
	cap := 0
	if strict {
		if total >= 2 && intbits.IsPow2(total) {
			cap = total / 2
		} else {
			cap = 1
		}
	}
	plan, err := planFor(total, element.TypeOf[E](), cfg, cap)
	if err != nil {
		return Config{}, err
	}
	out := plan.Apply(cfg)
	if out.Obs != nil {
		out.Obs.Emit(obs.Event{
			Kind:   obs.EventPlan,
			Detail: plan.String(),
			Wall:   time.Now().UnixNano(),
		})
	}
	if orig := out.Observe; orig != nil {
		out.Observe = func(rep SortReport) {
			p := plan
			rep.Plan = &p
			rep.Quantities = append(rep.Quantities, DriftQuantity{
				Name:      "plan-time",
				Measured:  rep.Result.Time,
				Predicted: plan.PredictedUS,
			})
			orig(rep)
		}
	}
	return out, nil
}
