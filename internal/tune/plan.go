package tune

import (
	"fmt"
	"runtime"
	"sort"

	"parbitonic/element"
	"parbitonic/internal/intbits"
	"parbitonic/internal/logp"
	"parbitonic/internal/schedule"
	"parbitonic/internal/spmd"
)

// Backend names an execution backend in a plan. The strings match the
// public parbitonic.Backend names; this package carries its own type
// because the import direction runs the other way (the root package
// imports tune).
type Backend string

// Plan backends.
const (
	// BackendSimulated scores plans in model microseconds on the
	// simulated LogGP machine (spmd.DefaultCosts + logp.MeikoCS2).
	BackendSimulated Backend = "simulated"
	// BackendNative scores plans in predicted wall-clock microseconds
	// from the machine profile. This is the default.
	BackendNative Backend = "native"
)

// Algorithm names as they appear in plans; they match the public
// parbitonic.Algorithm String names.
const (
	AlgSmart         = "smart-bitonic"
	AlgCyclicBlocked = "cyclic-blocked-bitonic"
	AlgBlockedMerge  = "blocked-merge-bitonic"
	AlgSampleSort    = "sample-sort"
	AlgRadixSort     = "radix-sort"
)

// Plan is one scored execution plan: the shape to run plus what the
// cost model predicts it costs. Times are microseconds — wall-clock
// predictions for BackendNative, model time for BackendSimulated.
type Plan struct {
	// Algorithm is the parbitonic.Algorithm String name (AlgSmart...).
	Algorithm string `json:"algorithm"`
	// Processors is the engine size P (power of two, >= 1).
	Processors int `json:"processors"`
	// Backend the plan is scored for.
	Backend Backend `json:"backend"`
	// Strategy is the smart remap strategy name ("head" unless the
	// planner was asked to consider the Lemma 5 variants).
	Strategy string `json:"strategy"`
	// KeysPerProc is the padded per-processor share n the score used.
	KeysPerProc int `json:"keys_per_proc"`
	// PredictedUS = ComputeUS + CommUS, the per-processor predicted
	// time in microseconds.
	PredictedUS float64 `json:"predicted_us"`
	// ComputeUS is the predicted local-computation time.
	ComputeUS float64 `json:"compute_us"`
	// CommUS is the predicted communication time. For BackendNative it
	// is synchronization, Profile.RunNS + R·spmd.RemapBarriers·
	// Profile.BarrierNS at P >= 2 and zero at P=1: a native remap's
	// data movement is in ComputeUS. For BackendSimulated it is the
	// §3.4 closed form (L+2o−g)R + G·V + (g−G)M under the Meiko CS-2
	// parameters.
	CommUS float64 `json:"comm_us"`
	// R is the §3.4 remap count the score used.
	R int `json:"r"`
	// V is the §3.4 transferred volume (elements per processor).
	V int `json:"v"`
	// M is the §3.4 message count per processor.
	M int `json:"m"`
	// Source is the profile source the score came from ("calibrated"
	// or "fallback").
	Source string `json:"source"`
}

// String renders the plan compactly: alg/P/backend and the predicted
// cost.
func (p Plan) String() string {
	s := ""
	if p.Strategy != "" && p.Strategy != "head" {
		s = "/" + p.Strategy
	}
	return fmt.Sprintf("%s P=%d %s%s (predicted %.0fµs)", p.Algorithm, p.Processors, p.Backend, s, p.PredictedUS)
}

// Planner scores candidate plans for this machine. The zero value is
// not usable; construct with NewPlanner or fill Profile explicitly.
type Planner struct {
	// Profile supplies the cost parameters; see Calibrate, Load,
	// Fallback.
	Profile *Profile
	// MaxP caps the candidate processor counts; 0 means GOMAXPROCS.
	// Non-powers of two are floored to the previous power of two.
	MaxP int
	// Backend constrains candidates to one backend. Plans are never
	// compared across backends: simulated scores are model
	// microseconds on the paper's Meiko CS-2, native scores are
	// predicted wall microseconds on this host, and the two units are
	// incommensurable. Empty means BackendNative.
	Backend Backend
	// AllStrategies additionally enumerates the Lemma 5 remap-shift
	// strategies (tail/middle1/middle2) for the smart algorithm.
	// Simulated backend only: non-Head strategies imply step-by-step
	// compare-exchange simulation, which is a model ablation rather
	// than a way to sort fast.
	AllStrategies bool
}

// NewPlanner returns a planner over the given profile (nil means
// Fallback) targeting the native backend.
func NewPlanner(p *Profile) *Planner {
	if p == nil {
		p = Fallback()
	}
	return &Planner{Profile: p, Backend: BackendNative}
}

// Plan returns the predicted-fastest plan for sorting totalKeys
// elements of type t. Ties break deterministically: smaller P first,
// then algorithm order (smart, cyclic-blocked, blocked-merge, sample,
// radix), then strategy order — so equal-cost candidates always
// resolve to the same plan on every host.
func (pl *Planner) Plan(totalKeys int, t element.Type) (Plan, error) {
	ranked, err := pl.Rank(totalKeys, t)
	if err != nil {
		return Plan{}, err
	}
	return ranked[0], nil
}

// Rank returns every candidate plan, best first, under the same
// deterministic ordering as Plan.
func (pl *Planner) Rank(totalKeys int, t element.Type) ([]Plan, error) {
	if totalKeys < 1 {
		return nil, fmt.Errorf("tune: cannot plan for %d keys", totalKeys)
	}
	prof := pl.Profile
	if prof == nil {
		prof = Fallback()
	}
	backend := pl.Backend
	if backend == "" {
		backend = BackendNative
	}
	if backend != BackendNative && backend != BackendSimulated {
		return nil, fmt.Errorf("tune: unknown backend %q", backend)
	}
	maxP := pl.MaxP
	if maxP <= 0 {
		maxP = runtime.GOMAXPROCS(0)
	}
	for maxP&(maxP-1) != 0 {
		maxP &= maxP - 1 // clear lowest set bit: floors to a power of two
	}

	cs := pl.costSetFor(prof, backend, t)
	var plans []Plan
	for p := 1; p <= maxP; p *= 2 {
		plans = append(plans, pl.candidates(prof, cs, backend, totalKeys, p, t)...)
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("tune: no candidate plans for %d keys on <=%d processors", totalKeys, maxP)
	}
	sort.SliceStable(plans, func(i, j int) bool {
		a, b := plans[i], plans[j]
		if a.PredictedUS != b.PredictedUS {
			return a.PredictedUS < b.PredictedUS
		}
		if a.Processors != b.Processors {
			return a.Processors < b.Processors
		}
		if ra, rb := algRank(a.Algorithm), algRank(b.Algorithm); ra != rb {
			return ra < rb
		}
		return stratRank(a.Strategy) < stratRank(b.Strategy)
	})
	return plans, nil
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
	radixPass, merge, compare, pack, unpack float64 // per element
	radixRound                              float64 // per element per digit round; native only
	commRun                                 float64 // per parallel run; native only
	commFixed, commWord, commMsg            float64 // per remap / 32-bit word / message
	words                                   int
	passes                                  int
	// cacheFactor multiplies compute terms by the simulator's cache
	// penalty; identity for native (real caches are in the measured
	// kernels).
	cacheFactor func(nWords int) float64
}

func (pl *Planner) costSetFor(prof *Profile, backend Backend, t element.Type) costSet {
	w := t.Width() / 4
	passes := spmd.DefaultCosts().RadixPasses * t.KeyBits() / 32
	if backend == BackendNative {
		k := prof.KernelsFor(t)
		return costSet{
			radixPass:   k.RadixPassNS / 1e3,
			merge:       k.MergeNS / 1e3,
			compare:     k.CompareNS / 1e3,
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
		compare:     costs.CompareExchange * fw,
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

// candidates scores every algorithm (and, when asked, strategy) at one
// processor count.
func (pl *Planner) candidates(prof *Profile, cs costSet, backend Backend, totalKeys, p int, t element.Type) []Plan {
	// Mirror PaddedSize: the per-processor share the engine would run.
	n := intbits.CeilPow2((totalKeys + p - 1) / p)
	if p > 1 && n < 2 {
		n = 2
	}
	cf := cs.cacheFactor(n * cs.words)
	fn := float64(n)
	radixAll := float64(cs.passes) * cs.radixPass * fn * cf

	mk := func(alg string, m logp.Metrics, computeUS float64) Plan {
		commUS := cs.comm(m.R, m.V, m.M)
		return Plan{
			Algorithm:   alg,
			Processors:  p,
			Backend:     backend,
			Strategy:    "head",
			KeysPerProc: n,
			PredictedUS: computeUS + commUS,
			ComputeUS:   computeUS,
			CommUS:      commUS,
			R:           m.R, V: m.V, M: m.M,
			Source: prof.Source,
		}
	}

	if p == 1 {
		// Sequential: one local radix sort, no communication.
		return []Plan{mk(AlgSmart, logp.Metrics{}, radixAll)}
	}

	lgP := intbits.Log2(p)
	lgN := intbits.Log2(n) + lgP
	var plans []Plan

	// Smart bitonic (Head): R merges after the initial local sort; the
	// native path is fused (no separate pack/unpack), the simulated
	// default packs and unpacks every transferred element.
	smart := logp.Smart(lgN, lgP)
	computeSmart := radixAll + float64(smart.R)*cs.merge*fn*cf
	if backend == BackendSimulated {
		computeSmart += (cs.pack + cs.unpack) * float64(smart.V) * cf
	}
	plans = append(plans, mk(AlgSmart, smart, computeSmart))

	// Lemma 5 remap-shift variants: step-by-step compare-exchange
	// simulation over every network step, simulated backend only.
	if pl.AllStrategies && backend == BackendSimulated {
		lgn := lgN - lgP
		localSteps := lgn*(lgn+1)/2 + schedule.TotalSteps(lgN, lgP)
		for _, strat := range []schedule.Strategy{schedule.Tail, schedule.Middle1, schedule.Middle2} {
			sched := schedule.New(lgN, lgP, strat)
			m := logp.Metrics{R: len(sched), V: schedule.Volume(sched, n), M: schedule.Messages(sched)}
			compute := float64(localSteps)*cs.compare*fn*cf + (cs.pack+cs.unpack)*float64(m.V)*cf
			pln := mk(AlgSmart, m, compute)
			pln.Strategy = strat.String()
			plans = append(plans, pln)
		}
	}

	// Cyclic-blocked ([CDMS94]): needs N >= P² (n >= P); one merge
	// pass per remap plus pack/unpack of everything transferred.
	if n >= p {
		m := logp.CyclicBlocked(lgP, n)
		compute := radixAll + float64(m.R)*cs.merge*fn*cf + (cs.pack+cs.unpack)*float64(m.V)*cf
		plans = append(plans, mk(AlgCyclicBlocked, m, compute))
	}

	// Blocked merge ([BLM+91]): every remote step compare-splits 2n
	// keys.
	bm := logp.Blocked(lgP, n)
	computeBM := radixAll + float64(bm.R)*cs.merge*2*fn*cf + (cs.pack+cs.unpack)*float64(bm.V)*cf
	plans = append(plans, mk(AlgBlockedMerge, bm, computeBM))

	// Sample sort ([AISS95]): one all-to-all round, then each
	// processor merges the P received runs (~lgP linear passes).
	sm := logp.Metrics{R: 1, V: n, M: p - 1}
	computeSample := radixAll + float64(lgP)*cs.merge*fn*cf + (cs.pack+cs.unpack)*float64(sm.V)*cf
	plans = append(plans, mk(AlgSampleSort, sm, computeSample))

	// Parallel radix sort ([AISS95]): one counting pass plus one
	// all-to-all scatter per digit. A native digit round is measured
	// whole — digit count, scatter into the send array, exchanges,
	// scatter back home — since its scatters cost far more than a copy.
	rm := logp.Metrics{R: cs.passes, V: cs.passes * n, M: cs.passes * (p - 1)}
	computeRadix := radixAll + (cs.pack+cs.unpack)*float64(rm.V)*cf
	if backend == BackendNative {
		computeRadix = cs.radixRound * float64(rm.V)
	}
	plans = append(plans, mk(AlgRadixSort, rm, computeRadix))

	return plans
}

func algRank(alg string) int {
	switch alg {
	case AlgSmart:
		return 0
	case AlgCyclicBlocked:
		return 1
	case AlgBlockedMerge:
		return 2
	case AlgSampleSort:
		return 3
	case AlgRadixSort:
		return 4
	}
	return 5
}

func stratRank(s string) int {
	switch s {
	case "", "head":
		return 0
	case "tail":
		return 1
	case "middle1":
		return 2
	case "middle2":
		return 3
	}
	return 4
}
