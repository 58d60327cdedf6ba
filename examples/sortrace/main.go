// Sortrace races the paper's smart bitonic sort against parallel radix
// sort and parallel sample sort (§5.5) over several input
// distributions, showing the paper's qualitative conclusions:
//
//   - sample sort is fastest on well-distributed keys,
//   - bitonic sort beats radix sort at small per-processor counts,
//   - bitonic sort is oblivious to the distribution, while sample
//     sort's balance (and therefore speed) collapses on low-entropy
//     inputs.
package main

import (
	"fmt"
	"log"

	"parbitonic"
	"parbitonic/internal/workload"
)

func race(p, n int, dist workload.Dist, seed uint64) map[parbitonic.Algorithm]parbitonic.Result {
	out := map[parbitonic.Algorithm]parbitonic.Result{}
	for _, alg := range []parbitonic.Algorithm{parbitonic.SmartBitonic, parbitonic.RadixSort, parbitonic.SampleSort} {
		keys := workload.Keys(dist, p*n, seed)
		res, err := parbitonic.Sort(keys, parbitonic.Config{Processors: p, Algorithm: alg, Sim: parbitonic.SimOptions{FusePackUnpack: alg == parbitonic.SmartBitonic}})
		if err != nil {
			log.Fatal(err)
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1] > keys[i] {
				log.Fatalf("%v did not sort %v input", alg, dist)
			}
		}
		out[alg] = res
	}
	return out
}

func main() {
	const p = 16

	fmt.Println("Per-key model time (us) by per-processor count, uniform keys, P=16:")
	fmt.Printf("  %-10s %-10s %-10s %-10s %s\n", "keys/proc", "bitonic", "radix", "sample", "fastest")
	for _, n := range []int{1 << 9, 1 << 12, 1 << 15, 1 << 18} {
		rs := race(p, n, workload.Uniform31, 42)
		bi, ra, sa := rs[parbitonic.SmartBitonic], rs[parbitonic.RadixSort], rs[parbitonic.SampleSort]
		fastest := "sample"
		if bi.Time < sa.Time && bi.Time < ra.Time {
			fastest = "bitonic"
		} else if ra.Time < sa.Time {
			fastest = "radix"
		}
		fmt.Printf("  %-10d %-10.3f %-10.3f %-10.3f %s\n",
			n, bi.TimePerKey(), ra.TimePerKey(), sa.TimePerKey(), fastest)
	}
	fmt.Println()

	fmt.Println("Distribution sensitivity at 64K keys/proc (per-key us):")
	fmt.Printf("  %-12s %-10s %-10s\n", "input", "bitonic", "sample")
	for _, dist := range []workload.Dist{workload.Uniform31, workload.Gaussian, workload.FewDistinct, workload.AllEqual} {
		rs := race(p, 1<<16, dist, 42)
		fmt.Printf("  %-12v %-10.3f %-10.3f\n", dist,
			rs[parbitonic.SmartBitonic].TimePerKey(), rs[parbitonic.SampleSort].TimePerKey())
	}
	fmt.Println()
	fmt.Println("Bitonic sort's time is identical across distributions (it is")
	fmt.Println("oblivious); sample sort degrades as key entropy drops because its")
	fmt.Println("splitters no longer balance the all-to-all exchange (§5.5).")
}
