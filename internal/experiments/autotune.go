package experiments

import (
	"fmt"
	"slices"

	"parbitonic"
	"parbitonic/element"
	"parbitonic/internal/workload"
)

// autotuneAlgs are the fixed algorithms the autotuner is raced
// against: every algorithm the planner can choose.
var autotuneAlgs = []parbitonic.Algorithm{
	parbitonic.SmartBitonic, parbitonic.CyclicBlockedBitonic, parbitonic.BlockedMergeBitonic,
	parbitonic.SampleSort, parbitonic.RadixSort,
}

// autoReps is the number of timed sorts per shape after one warm-up;
// a cell reports their median engine run time.
const autoReps = 5

// AutotunedVsFixed is not a paper reproduction: it races the
// cost-model autotuner (PlanFor, internal/tune) against every fixed
// (algorithm, P) shape on the native backend, at three scaled total
// sizes plus 2^20 keys for the narrowest and widest element types —
// the repository's one native auto-vs-fixed race. A healthy planner
// lands at or near the best fixed shape and never at the worst; the
// drift column (measured/predicted) says how much to trust the machine
// profile — re-calibrate when it wanders from 1 (TUNING.md).
func AutotunedVsFixed(c Config) *Table {
	t := &Table{
		ID:    "Autotuned vs fixed",
		Title: "planner-chosen shape vs best and worst fixed (algorithm, P), native backend, median wall ms",
		Columns: []string{"keys", "elem", "auto plan", "auto ms", "best fixed", "best ms",
			"worst fixed", "worst ms", "drift"},
		Notes: []string{
			"fixed sweep: every algorithm the planner can choose (smart, cyclic-blocked and blocked-merge bitonic, sample and radix sort) at every power-of-two P up to 4 (P=1 collapses them to one sequential sort).",
			fmt.Sprintf("each shape, the auto plan's included, runs on its own engine: one warm-up, then the median engine run time of %d sorts of fresh copies of one input.", autoReps),
			"drift = measured wall time / the plan's predicted time; far from 1 means the machine profile no longer describes this host — run bitonic-sort -calibrate (see TUNING.md).",
		},
	}
	var sizes []int
	for _, kKeys := range []int{64, 256, 1024} {
		sizes = append(sizes, 4*c.keysPerProc(kKeys))
	}
	if !slices.Contains(sizes, 1<<20) {
		sizes = append(sizes, 1<<20)
	}
	for _, total := range sizes {
		t.Rows = append(t.Rows,
			autoVsFixed[uint32](c, total),
			autoVsFixed[element.KV64](c, total))
	}
	return t
}

// autoVsFixed runs one (size, element type) cell: the shape the
// planner picks, then the full fixed sweep, returning the rendered
// table row.
func autoVsFixed[E element.Elem](c Config, total int) []string {
	input := workload.Elems[E](workload.Uniform31, total, c.Seed)
	native := parbitonic.Config{Backend: parbitonic.Native}
	plan, err := parbitonic.PlanFor[E](total, native)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s auto: %v", element.TypeOf[E](), err))
	}
	autoMS := medianRunMS(input, plan.Apply(native))
	drift := "-"
	if plan.PredictedUS > 0 {
		drift = f2(autoMS * 1e3 / plan.PredictedUS)
	}

	bestMS, worstMS := 0.0, 0.0
	bestName, worstName := "", ""
	for p := 1; p <= 4 && p <= total/2; p *= 2 {
		for _, alg := range autotuneAlgs {
			if p == 1 && alg != parbitonic.SmartBitonic {
				continue // P=1 runs one local sort regardless of algorithm
			}
			ms := medianRunMS(input, parbitonic.Config{Processors: p, Algorithm: alg, Backend: parbitonic.Native})
			name := fmt.Sprintf("%v P=%d", alg, p)
			if bestName == "" || ms < bestMS {
				bestName, bestMS = name, ms
			}
			if worstName == "" || ms > worstMS {
				worstName, worstMS = name, ms
			}
		}
	}
	return []string{
		fmt.Sprintf("%d", total), element.TypeOf[E]().String(),
		fmt.Sprintf("%v P=%d", plan.Algorithm, plan.Processors), f2(autoMS),
		bestName, f2(bestMS),
		worstName, f2(worstMS),
		drift,
	}
}

// medianRunMS builds one engine for cfg and returns the median engine
// run time, in milliseconds, of autoReps sorts of fresh copies of
// input after one warm-up sort.
func medianRunMS[E element.Elem](input []E, cfg parbitonic.Config) float64 {
	eng, err := parbitonic.NewEngineOf[E](cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s %v P=%d: %v", element.TypeOf[E](), cfg.Algorithm, cfg.Processors, err))
	}
	defer eng.Close()
	keys := make([]E, len(input))
	times := make([]float64, 0, autoReps)
	for i := 0; i <= autoReps; i++ {
		copy(keys, input)
		res, err := eng.Sort(keys)
		if err != nil {
			panic(fmt.Sprintf("experiments: %s %v P=%d: %v", element.TypeOf[E](), cfg.Algorithm, cfg.Processors, err))
		}
		if i > 0 { // sort 0 is the warm-up
			times = append(times, res.Time)
		}
	}
	slices.Sort(times)
	return times[len(times)/2] / 1e3
}
