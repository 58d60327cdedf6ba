package parbitonic_test

import (
	"slices"
	"testing"

	"parbitonic"
	"parbitonic/element"
	"parbitonic/internal/localsort"
	"parbitonic/internal/workload"
	"parbitonic/internal/workpool"
)

// The tests in this file cover the shared-memory fast path: the gather
// remap both backends run (spmd.ProcOf.Remap, internal/spmd/remap.go),
// the in-place P=1 engine path, and the overhauled localsort kernels,
// for every element type rather than only uint32 (backend_test.go).
//
// Shape note: with P processors the Smart algorithm takes the fused
// FullSort path when lgP(lgP+1)/2 <= lg(N/P); Remap runs on the
// optimized path (tall P, small N/P) and on every remap of the
// cyclic-blocked baseline, and the blocked-merge baseline swaps halves
// with PairExchange. The shapes below are chosen so both regimes are
// exercised.

// checkSortedPerm fails the test unless out is non-decreasing under
// less and is a multiset permutation of in under the total order total
// (which must refine less). This is the right contract for KV64: the
// sort orders by K alone, so records with equal keys may legally appear
// in any payload order.
func checkSortedPerm[E element.Elem](t *testing.T, in, out []E, less, total func(a, b E) bool) {
	t.Helper()
	if len(out) != len(in) {
		t.Fatalf("length changed: in %d, out %d", len(in), len(out))
	}
	for i := 1; i < len(out); i++ {
		if less(out[i], out[i-1]) {
			t.Fatalf("output not sorted at %d: %v after %v", i, out[i], out[i-1])
		}
	}
	a := slices.Clone(in)
	b := slices.Clone(out)
	slices.SortFunc(a, func(x, y E) int {
		if total(x, y) {
			return -1
		}
		if total(y, x) {
			return 1
		}
		return 0
	})
	slices.SortFunc(b, func(x, y E) int {
		if total(x, y) {
			return -1
		}
		if total(y, x) {
			return 1
		}
		return 0
	})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output is not a permutation of input (first diff at canonical index %d: %v vs %v)", i, a[i], b[i])
		}
	}
}

func runTypedNative[E element.Elem](t *testing.T, less, total func(a, b E) bool) {
	t.Helper()
	shapes := []struct{ p, n int }{
		{1, 256}, // in-place single-proc fast path
		{2, 128}, // FullSort regime
		{8, 64},  // baselines remap every round
		{8, 16},  // optimized Smart regime: Remap on the smart path
		{16, 32}, // tall machine, tiny blocks
	}
	algs := []parbitonic.Algorithm{
		parbitonic.SmartBitonic,
		parbitonic.CyclicBlockedBitonic,
		parbitonic.BlockedMergeBitonic,
	}
	dists := []workload.Dist{workload.Uniform31, workload.FewDistinct, workload.Reverse}
	for _, sh := range shapes {
		for _, alg := range algs {
			if alg == parbitonic.CyclicBlockedBitonic && sh.n < sh.p*sh.p {
				continue // cyclic-blocked requires N >= P^2 (§2.3)
			}
			for _, d := range dists {
				in := workload.Elems[E](d, sh.n, uint64(sh.p*1000+sh.n)+uint64(d))
				keys := slices.Clone(in)
				cfg := parbitonic.Config{
					Processors: sh.p,
					Algorithm:  alg,
					Backend:    parbitonic.Native,
					Verify:     true,
				}
				if _, err := parbitonic.Sort(keys, cfg); err != nil {
					t.Fatalf("p=%d n=%d %v %v: %v", sh.p, sh.n, alg, d, err)
				}
				checkSortedPerm(t, in, keys, less, total)
			}
		}
	}
}

// TestNativeTypedMatchesReference proves the native fast path sorts
// correctly for all five element types, against an independent
// reference order, across machine shapes that hit the in-place P=1
// path, the FullSort regime, and the Remap regime.
func TestNativeTypedMatchesReference(t *testing.T) {
	lt := func(a, b uint32) bool { return a < b }
	t.Run("u32", func(t *testing.T) { runTypedNative(t, lt, lt) })
	lt64 := func(a, b uint64) bool { return a < b }
	t.Run("u64", func(t *testing.T) { runTypedNative(t, lt64, lt64) })
	ltf32 := func(a, b float32) bool { return a < b }
	t.Run("f32", func(t *testing.T) { runTypedNative(t, ltf32, ltf32) })
	ltf64 := func(a, b float64) bool { return a < b }
	t.Run("f64", func(t *testing.T) { runTypedNative(t, ltf64, ltf64) })
	t.Run("kv64", func(t *testing.T) {
		less := func(a, b element.KV64) bool { return a.K < b.K }
		total := func(a, b element.KV64) bool {
			if a.K != b.K {
				return a.K < b.K
			}
			return a.V < b.V
		}
		runTypedNative(t, less, total)
	})
}

// TestNativeFullSortParallelPool checks the fused FullSort merges at
// shapes that really run in parallel: P=2 and P=4 native processors
// with a four-lane kernel pool (so the radix tiles run concurrently
// whatever the host's core count) and N/P = 2^16 keys per processor —
// past the hybrid radix threshold and inside the FullSort regime —
// for all five element types, against a reference sort.
func TestNativeFullSortParallelPool(t *testing.T) {
	pool := workpool.New(4)
	defer pool.Close()
	localsort.SetPool(pool)
	defer localsort.SetPool(nil)

	lt := func(a, b uint32) bool { return a < b }
	t.Run("u32", func(t *testing.T) { runFullSortParallel(t, lt, lt) })
	lt64 := func(a, b uint64) bool { return a < b }
	t.Run("u64", func(t *testing.T) { runFullSortParallel(t, lt64, lt64) })
	ltf32 := func(a, b float32) bool { return a < b }
	t.Run("f32", func(t *testing.T) { runFullSortParallel(t, ltf32, ltf32) })
	ltf64 := func(a, b float64) bool { return a < b }
	t.Run("f64", func(t *testing.T) { runFullSortParallel(t, ltf64, ltf64) })
	t.Run("kv64", func(t *testing.T) {
		less := func(a, b element.KV64) bool { return a.K < b.K }
		total := func(a, b element.KV64) bool {
			if a.K != b.K {
				return a.K < b.K
			}
			return a.V < b.V
		}
		runFullSortParallel(t, less, total)
	})
}

func runFullSortParallel[E element.Elem](t *testing.T, less, total func(a, b E) bool) {
	for _, p := range []int{2, 4} {
		e, err := parbitonic.NewEngineOf[E](parbitonic.Config{Processors: p, Backend: parbitonic.Native})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []workload.Dist{workload.Uniform31, workload.FewDistinct} {
			in := workload.Elems[E](d, p<<16, uint64(p)+uint64(d))
			keys := slices.Clone(in)
			if _, err := e.Sort(keys); err != nil {
				t.Fatalf("P=%d %v: %v", p, d, err)
			}
			checkSortedPerm(t, in, keys, less, total)
		}
		e.Close()
	}
}

// TestNativeSimulatedIdentical is the seam test between the backends:
// both run the same gather remap and differ only in what they charge,
// and since the bitonic network is data-oblivious, the two backends
// must produce element-for-element identical output — payload order of
// tied KV64 records included. It also checks the §3.4 communication
// counters agree: both backends count the long messages of the packed
// pipeline, whoever charges them. Only the simulator charges pack and
// unpack; the native gather has neither pass, so native PackTime and
// UnpackTime must read 0.
func TestNativeSimulatedIdentical(t *testing.T) {
	shapes := []struct{ p, n int }{{8, 16}, {8, 64}, {16, 32}, {4, 256}}
	algs := []parbitonic.Algorithm{
		parbitonic.SmartBitonic,
		parbitonic.CyclicBlockedBitonic,
		parbitonic.BlockedMergeBitonic,
	}
	for _, sh := range shapes {
		for _, alg := range algs {
			if alg == parbitonic.CyclicBlockedBitonic && sh.n < sh.p*sh.p {
				continue // cyclic-blocked requires N >= P^2 (§2.3)
			}
			in := workload.Elems[element.KV64](workload.FewDistinct, sh.n, uint64(31*sh.p+sh.n))
			sim := slices.Clone(in)
			nat := slices.Clone(in)
			// Sim.FusePackUnpack on the simulated Smart run so the simulator
			// picks the same compute mode the native backend forces;
			// otherwise FullSort vs optimized merge tied payloads in a
			// different (equally valid) order. The baselines reject the
			// flag and have a single compute mode anyway.
			simRes, err := parbitonic.Sort(sim, parbitonic.Config{
				Processors: sh.p, Algorithm: alg, Verify: true,
				Sim: parbitonic.SimOptions{FusePackUnpack: alg == parbitonic.SmartBitonic},
			})
			if err != nil {
				t.Fatalf("simulated p=%d n=%d %v: %v", sh.p, sh.n, alg, err)
			}
			natRes, err := parbitonic.Sort(nat, parbitonic.Config{
				Processors: sh.p, Algorithm: alg, Backend: parbitonic.Native, Verify: true,
			})
			if err != nil {
				t.Fatalf("native p=%d n=%d %v: %v", sh.p, sh.n, alg, err)
			}
			for i := range sim {
				if sim[i] != nat[i] {
					t.Fatalf("p=%d n=%d %v: outputs diverge at %d: simulated %v, native %v",
						sh.p, sh.n, alg, i, sim[i], nat[i])
				}
			}
			if simRes.Remaps != natRes.Remaps ||
				simRes.VolumeSent != natRes.VolumeSent ||
				simRes.MessagesSent != natRes.MessagesSent {
				t.Errorf("p=%d n=%d %v: counters diverge: simulated R=%d V=%d M=%d, native R=%d V=%d M=%d",
					sh.p, sh.n, alg,
					simRes.Remaps, simRes.VolumeSent, simRes.MessagesSent,
					natRes.Remaps, natRes.VolumeSent, natRes.MessagesSent)
			}
			if natRes.PackTime != 0 || natRes.UnpackTime != 0 {
				t.Errorf("p=%d n=%d %v: native pack=%v unpack=%v, want 0",
					sh.p, sh.n, alg, natRes.PackTime, natRes.UnpackTime)
			}
		}
	}
}

// TestRemapHammer re-runs sorts through a reused engine on both
// backends so the buffer pool recycles gathered arrays across runs.
// Under -race this hammers the ownership hand-off: a buffer released
// to the pool before its consumers' barrier, or a diagonal slot
// cleared early, shows up as a data race or a verification failure.
func TestRemapHammer(t *testing.T) {
	cases := []struct {
		p, n int
		alg  parbitonic.Algorithm
	}{
		{8, 16, parbitonic.SmartBitonic},          // optimized path remaps
		{8, 512, parbitonic.CyclicBlockedBitonic}, // both conversion remaps
		{8, 512, parbitonic.BlockedMergeBitonic},  // PairExchange + deferred spare recycling
	}
	const reps = 30
	for _, backend := range []parbitonic.Backend{parbitonic.Simulated, parbitonic.Native} {
		for _, c := range cases {
			e, err := parbitonic.NewEngineOf[element.KV64](parbitonic.Config{
				Processors: c.p, Algorithm: c.alg, Backend: backend, Verify: true,
			})
			if err != nil {
				t.Fatalf("%v %v: %v", backend, c.alg, err)
			}
			for r := 0; r < reps; r++ {
				keys := workload.Elems[element.KV64](workload.FullRange, c.n, uint64(r+1))
				if _, err := e.Sort(keys); err != nil {
					t.Fatalf("%v %v rep %d: %v", backend, c.alg, r, err)
				}
			}
			e.Close()
		}
	}
}
