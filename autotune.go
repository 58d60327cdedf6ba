package parbitonic

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"parbitonic/element"
	"parbitonic/internal/intbits"
	"parbitonic/internal/logp"
	"parbitonic/internal/obs"
	"parbitonic/internal/spmd"
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
	return fmt.Sprintf("%v P=%d %v predicted=%.0fµs (%s profile)",
		p.Algorithm, p.Processors, p.Backend, p.PredictedUS, p.ProfileSource)
}

// Apply returns cfg specialized to this plan: Processors and Algorithm
// replaced by the plan's choices, Sim.Strategy set to HeadRemap (the
// only strategy plans are scored for) and Auto cleared, every other
// field (Backend, Verify, telemetry sinks, the other Sim options)
// preserved. The result is a normal fixed-shape Config, usable with
// NewEngineOf.
func (p Plan) Apply(cfg Config) Config {
	cfg.Auto = false
	cfg.Processors = p.Processors
	cfg.Algorithm = p.Algorithm
	cfg.Sim.Strategy = HeadRemap
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
// plans never read it). Ties break deterministically: smaller P, then
// algorithm declaration order.
func PlanFor[E element.Elem](totalKeys int, cfg Config) (Plan, error) {
	return planFor(totalKeys, element.TypeOf[E](), cfg, 0)
}

// planFor is PlanFor over a runtime element.Type, with an optional
// additional cap on P (0 = none) for callers whose key count must
// divide exactly.
func planFor(totalKeys int, t element.Type, cfg Config, maxPCap int) (Plan, error) {
	if totalKeys < 1 {
		return Plan{}, fmt.Errorf("parbitonic: cannot plan for %d keys", totalKeys)
	}
	// Simulated scores come from the simulator's own cost model and
	// never read the machine profile, so only native plans load it: a
	// stale or corrupt file cannot change or fail a simulated plan.
	prof := tune.Fallback()
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
	if maxPCap > 0 {
		maxP = min(maxP, maxPCap)
	}
	// On the native backend every predicted cost — kernels and channel
	// copies alike — is CPU work, so P beyond the schedulable cores
	// only adds time-slicing overhead the per-processor model cannot
	// see. Clamp the candidates rather than let the planner predict
	// parallel speedup the host cannot deliver. (Simulated plans model
	// a machine that really has P processors, so they are not clamped.)
	if cfg.Backend == Native {
		maxP = min(maxP, runtime.GOMAXPROCS(0))
	}
	return rankPlans(prof, cfg.Backend, totalKeys, maxP, t)[0], nil
}

// rankPlans scores every candidate plan on the powers of two P <= maxP
// (maxP >= 1) and returns them best first: lower PredictedUS, then
// smaller P, then algorithm declaration order, so equal-cost
// candidates resolve to the same plan on every host.
func rankPlans(prof *tune.Profile, backend Backend, totalKeys, maxP int, t element.Type) []Plan {
	cs := costSetFor(prof, backend, t)
	var plans []Plan
	for p := 1; p <= maxP; p *= 2 {
		plans = append(plans, cs.candidates(prof.Source, backend, totalKeys, p)...)
	}
	slices.SortFunc(plans, func(a, b Plan) int {
		return cmp.Or(cmp.Compare(a.PredictedUS, b.PredictedUS),
			cmp.Compare(a.Processors, b.Processors), cmp.Compare(a.Algorithm, b.Algorithm))
	})
	return plans
}

// costSet holds the per-element cost parameters of one scoring basis,
// in microseconds. For the native backend they come from the machine
// profile, and communication is synchronization alone: commRun is one
// parallel run's fixed cost, commFixed the spmd.RemapBarriers barrier
// round trips a remap crosses, and the volume and message terms are
// zero, since a native remap moves its data in the gather, in-place
// merge or radix digit round that the compute terms price. For the
// simulated backend they come from the simulator's own model
// (spmd.DefaultCosts + logp.MeikoCS2), so a simulated plan's score is
// the model time the simulator itself would report.
type costSet struct {
	radixPass, merge, pack, unpack float64 // per element
	radixRound                     float64 // per element per digit round; native only
	commRun                        float64 // per parallel run; native only
	commFixed, commWord, commMsg   float64 // per remap / 32-bit word / message
	words                          int
	passes                         int
	// cacheFactor multiplies compute terms by the simulator's cache
	// penalty; identity for native (real caches are in the measured
	// kernels).
	cacheFactor func(nWords int) float64
}

func costSetFor(prof *tune.Profile, backend Backend, t element.Type) costSet {
	w := t.Width() / 4
	passes := spmd.DefaultCosts().RadixPasses * t.KeyBits() / 32
	if backend == Native {
		k := prof.KernelsFor(t)
		return costSet{
			radixPass:   k.RadixPassNS / 1e3,
			merge:       k.MergeNS / 1e3,
			pack:        k.CopyNS / 1e3,
			unpack:      k.CopyNS / 1e3,
			radixRound:  k.RadixRoundNS / 1e3,
			commRun:     prof.RunNS / 1e3,
			commFixed:   spmd.RemapBarriers * prof.BarrierNS / 1e3,
			words:       w,
			passes:      passes,
			cacheFactor: func(int) float64 { return 1 },
		}
	}
	costs := spmd.DefaultCosts()
	params := logp.MeikoCS2(1) // L/o/g/G are P-independent
	fw := float64(w)
	return costSet{
		radixPass:   costs.RadixPass * fw,
		merge:       costs.Merge * fw,
		pack:        costs.Pack * fw,
		unpack:      costs.Unpack * fw,
		commFixed:   params.L + 2*params.O - params.Gap,
		commWord:    params.GKey,
		commMsg:     params.Gap - params.GKey,
		words:       w,
		passes:      passes,
		cacheFactor: costs.CacheFactor,
	}
}

// comm evaluates the §3.4 closed form for the given metrics under this
// cost set, scaling volume to 32-bit words, plus the fixed cost of a
// parallel run. A native cost set has only the run and per-remap
// barrier terms; a simulated one has no run term.
func (c costSet) comm(r, v, m int) float64 {
	if r <= 0 {
		return 0
	}
	return c.commRun + c.commFixed*float64(r) + c.commWord*float64(v*c.words) + c.commMsg*float64(m)
}

// candidates scores every algorithm at one processor count, in
// declaration order.
func (c costSet) candidates(source string, backend Backend, totalKeys, p int) []Plan {
	// Mirror PaddedSize: the per-processor share the engine would run.
	n := PaddedSize(totalKeys, p) / p
	cf := c.cacheFactor(n * c.words)
	fn := float64(n)
	radixAll := float64(c.passes) * c.radixPass * fn * cf

	mk := func(alg Algorithm, m logp.Metrics, computeUS float64) Plan {
		commUS := c.comm(m.R, m.V, m.M)
		return Plan{
			Algorithm:   alg,
			Processors:  p,
			Backend:     backend,
			KeysPerProc: n,
			PredictedUS: computeUS + commUS,
			ComputeUS:   computeUS,
			CommUS:      commUS,
			R:           m.R, V: m.V, M: m.M,
			ProfileSource: source,
		}
	}

	if p == 1 {
		// Sequential: one local radix sort, no communication.
		return []Plan{mk(SmartBitonic, logp.Metrics{}, radixAll)}
	}

	lgP := intbits.Log2(p)
	lgN := intbits.Log2(n) + lgP
	var plans []Plan

	// Smart bitonic (Head): R merges after the initial local sort; the
	// native path is fused (no separate pack/unpack), the simulated
	// default packs and unpacks every transferred element.
	smart := logp.Smart(lgN, lgP)
	computeSmart := radixAll + float64(smart.R)*c.merge*fn*cf
	if backend != Native {
		computeSmart += (c.pack + c.unpack) * float64(smart.V) * cf
	}
	plans = append(plans, mk(SmartBitonic, smart, computeSmart))

	// Cyclic-blocked ([CDMS94]): needs N >= P² (n >= P); one merge
	// pass per remap plus pack/unpack of everything transferred.
	if n >= p {
		m := logp.CyclicBlocked(lgP, n)
		compute := radixAll + float64(m.R)*c.merge*fn*cf + (c.pack+c.unpack)*float64(m.V)*cf
		plans = append(plans, mk(CyclicBlockedBitonic, m, compute))
	}

	// Blocked merge ([BLM+91]): every remote step compare-splits 2n
	// keys.
	bm := logp.Blocked(lgP, n)
	computeBM := radixAll + float64(bm.R)*c.merge*2*fn*cf + (c.pack+c.unpack)*float64(bm.V)*cf
	plans = append(plans, mk(BlockedMergeBitonic, bm, computeBM))

	// Sample sort ([AISS95]): one all-to-all round, then each
	// processor merges the P received runs (~lgP linear passes).
	sm := logp.Metrics{R: 1, V: n, M: p - 1}
	computeSample := radixAll + float64(lgP)*c.merge*fn*cf + (c.pack+c.unpack)*float64(sm.V)*cf
	plans = append(plans, mk(SampleSort, sm, computeSample))

	// Parallel radix sort ([AISS95]): one counting pass plus one
	// all-to-all scatter per digit. A native digit round is measured
	// whole — digit count, scatter into the send array, exchanges,
	// scatter back home — since its scatters cost far more than a copy.
	rm := logp.Metrics{R: c.passes, V: c.passes * n, M: c.passes * (p - 1)}
	computeRadix := radixAll + (c.pack+c.unpack)*float64(rm.V)*cf
	if backend == Native {
		computeRadix = c.radixRound * float64(rm.V)
	}
	plans = append(plans, mk(RadixSort, rm, computeRadix))

	return plans
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
