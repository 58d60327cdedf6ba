package experiments

import (
	"fmt"

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

// AutotunedVsFixed is not a paper reproduction: it races the
// cost-model autotuner (Config.Auto, internal/tune) against every
// fixed (algorithm, P) shape on the native backend, at three total
// sizes for the narrowest and widest element types — the repository's
// one native auto-vs-fixed race. A healthy planner lands at or near
// the best fixed shape and never at the worst; the drift column
// (measured/predicted) says how much to trust the machine profile —
// re-calibrate when it wanders from 1 (TUNING.md).
func AutotunedVsFixed(c Config) *Table {
	t := &Table{
		ID:    "Autotuned vs fixed",
		Title: "planner-chosen shape vs best and worst fixed (algorithm, P), native backend, wall ms",
		Columns: []string{"keys", "elem", "auto plan", "auto ms", "best fixed", "best ms",
			"worst fixed", "worst ms", "drift"},
		Notes: []string{
			"fixed sweep: every algorithm the planner can choose (smart, cyclic-blocked and blocked-merge bitonic, sample and radix sort) at every power-of-two P up to 4 (P=1 collapses them to one sequential sort).",
			"drift = measured wall time / the plan's predicted time; far from 1 means the machine profile no longer describes this host — run bitonic-sort -calibrate (see TUNING.md).",
		},
	}
	for _, kKeys := range []int{64, 256, 1024} {
		total := 4 * c.keysPerProc(kKeys)
		t.Rows = append(t.Rows,
			autoVsFixed[uint32](c, total),
			autoVsFixed[element.KV64](c, total))
	}
	return t
}

// autoVsFixed runs one (size, element type) cell: the Auto sort, then
// the full fixed sweep, returning the rendered table row.
func autoVsFixed[E element.Elem](c Config, total int) []string {
	var rep parbitonic.SortReport
	data := workload.Elems[E](workload.Uniform31, total, c.Seed)
	res, err := parbitonic.Sort(data, parbitonic.Config{
		Auto:    true,
		Backend: parbitonic.Native,
		Observe: func(r parbitonic.SortReport) { rep = r },
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %s auto: %v", element.TypeOf[E](), err))
	}
	autoMS := res.Time / 1e3
	drift := "-"
	planName := "?"
	if rep.Plan != nil {
		planName = fmt.Sprintf("%v P=%d", rep.Plan.Algorithm, rep.Plan.Processors)
		if rep.Plan.PredictedUS > 0 {
			drift = f2(res.Time / rep.Plan.PredictedUS)
		}
	}

	bestMS, worstMS := 0.0, 0.0
	bestName, worstName := "", ""
	for p := 1; p <= 4 && p <= total/2; p *= 2 {
		for _, alg := range autotuneAlgs {
			if p == 1 && alg != parbitonic.SmartBitonic {
				continue // P=1 runs one local sort regardless of algorithm
			}
			fixed := workload.Elems[E](workload.Uniform31, total, c.Seed)
			fres, err := parbitonic.Sort(fixed, parbitonic.Config{
				Processors: p,
				Algorithm:  alg,
				Backend:    parbitonic.Native,
			})
			if err != nil {
				panic(fmt.Sprintf("experiments: %s %v P=%d: %v", element.TypeOf[E](), alg, p, err))
			}
			ms := fres.Time / 1e3
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
		planName, f2(autoMS),
		bestName, f2(bestMS),
		worstName, f2(worstMS),
		drift,
	}
}
