// The race runtime instruments with allocations of its own, so the
// allocator-accounting assertions only mean something unraced.
//go:build !race

package parbitonic_test

import (
	"fmt"
	"runtime"
	"testing"

	"parbitonic"
	"parbitonic/element"
	"parbitonic/internal/localsort"
	"parbitonic/internal/workload"
	"parbitonic/internal/workpool"
)

// TestNativeSortZeroAllocs pins the end-to-end zero-allocation promise
// of the shared-memory fast path: a reused native engine sorts in
// steady state without a single heap allocation — no goroutine spawns
// (the engine keeps persistent workers), no array churn (every body
// runs in the caller's slice and the persistent spares on each
// processor's Scratch), no table rebuilds (the compiled body, the plans' routing
// deltas and the FullSort run table persist) and no kernel dispatch
// state (the parallel kernels' tile states are stashed). The table
// covers P=1 (the in-place local path), P=4 (FullSort merges and the
// exchange board), P=8 at 16 keys a processor (the optimized smart
// phases over the gather Remap and both bitonic block kernels), the
// cyclic-blocked baseline (Remap with strided local sorts), the
// blocked-merge baseline (pair exchanges with compare-splits), the
// psort comparators (sample sort's splitter tables and merge into its
// spare, radix sort's histogram exchanges and send array) and KV64
// records. It runs on a 1-lane kernel pool and on a 2-lane one, the
// shared pool of any host with 2 or more cores, whose helper lane
// takes kernel tiles. One more case, smart P=2 over 2^20 keys on a
// 2-lane pool, covers the default shape at the paper's size: its
// shares reach the hybrid radix, and FullSort sorts in the caller's
// slice.
func TestNativeSortZeroAllocs(t *testing.T) {
	defer localsort.SetPool(nil)
	run := func(t *testing.T, name string, f func() error) {
		t.Helper()
		for i := 0; i < 2; i++ { // allocate the spares and spawn workers
			if err := f(); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(10, func() { f() }); avg != 0 {
			t.Errorf("%s: %.1f allocs/op in steady state, want 0", name, avg)
		}
	}
	engine := func(t *testing.T, p int, alg parbitonic.Algorithm) *parbitonic.EngineOf[uint32] {
		e, err := parbitonic.NewEngineOf[uint32](parbitonic.Config{Processors: p, Algorithm: alg, Backend: parbitonic.Native})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}

	for _, lanes := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d lanes", lanes), func(t *testing.T) {
			wp := workpool.New(lanes)
			defer wp.Close()
			localsort.SetPool(wp)
			for _, c := range []struct {
				name string
				p, n int
				alg  parbitonic.Algorithm
			}{
				{"smart P=1", 1, 1 << 14, parbitonic.SmartBitonic},
				{"smart P=4", 4, 1 << 14, parbitonic.SmartBitonic},
				{"smart P=8", 8, 128, parbitonic.SmartBitonic},
				{"cyclic-blocked P=4", 4, 1 << 14, parbitonic.CyclicBlockedBitonic},
				{"blocked-merge P=4", 4, 1 << 14, parbitonic.BlockedMergeBitonic},
				{"sample P=4", 4, 1 << 14, parbitonic.SampleSort},
				{"radix P=4", 4, 1 << 14, parbitonic.RadixSort},
			} {
				e := engine(t, c.p, c.alg)
				keys := workload.Elems[uint32](workload.FullRange, c.n, 5)
				run(t, c.name, func() error { _, err := e.Sort(keys); return err })
			}

			// The record path moves four times the bytes through the same
			// machinery.
			ekv, err := parbitonic.NewEngineOf[element.KV64](parbitonic.Config{
				Processors: 4, Backend: parbitonic.Native,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ekv.Close()
			recs := workload.Elems[element.KV64](workload.FullRange, 1<<14, 9)
			run(t, "kv64 smart P=4", func() error { _, err := ekv.Sort(recs); return err })
		})
	}

	t.Run("smart P=2 2^20 keys, 2 lanes", func(t *testing.T) {
		lanes := workpool.New(2)
		defer lanes.Close()
		localsort.SetPool(lanes)
		e := engine(t, 2, parbitonic.SmartBitonic)
		input := workload.Elems[uint32](workload.FullRange, 1<<20, 7)
		keys := make([]uint32, len(input))
		run(t, "smart P=2 2^20", func() error {
			copy(keys, input)
			_, err := e.Sort(keys)
			return err
		})
	})
}

// TestFullSortWorkingSet pins FullSort's memory: a processor runs in
// two arrays, its view of the caller's keys and one spare, so a warm
// native engine holds at most N × element width of its own beyond the
// keys, plus 1 MiB for tables, tile states and headers.
func TestFullSortWorkingSet(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		native := parbitonic.Config{Processors: p, Backend: parbitonic.Native}
		t.Run(fmt.Sprintf("u32/P=%d", p), func(t *testing.T) { testWorkingSet[uint32](t, native, 1<<20, 1) })
		t.Run(fmt.Sprintf("kv64/P=%d", p), func(t *testing.T) { testWorkingSet[element.KV64](t, native, 1<<18, 1) })
	}
}

// TestEngineWorkingSet pins the other shapes to the same rule: smart's
// optimized phases (here on the simulated backend), cyclic-blocked and
// the psort comparators keep one spare per processor (radix sort's send
// array; sample sort's radix scratch and merge output, which holds the
// largest share received), blocked-merge two, because its partner
// still reads the array a compare-split replaced while the radix sort
// runs.
func TestEngineWorkingSet(t *testing.T) {
	for _, c := range []struct {
		name   string
		cfg    parbitonic.Config
		spares int
	}{
		{"cyclic-blocked", parbitonic.Config{Processors: 4, Algorithm: parbitonic.CyclicBlockedBitonic, Backend: parbitonic.Native}, 1},
		{"simulated-smart", parbitonic.Config{Processors: 4}, 1},
		{"blocked-merge", parbitonic.Config{Processors: 4, Algorithm: parbitonic.BlockedMergeBitonic, Backend: parbitonic.Native}, 2},
		{"sample", parbitonic.Config{Processors: 4, Algorithm: parbitonic.SampleSort, Backend: parbitonic.Native}, 1},
		{"radix", parbitonic.Config{Processors: 4, Algorithm: parbitonic.RadixSort, Backend: parbitonic.Native}, 1},
	} {
		t.Run(c.name+"/u32/P=4", func(t *testing.T) { testWorkingSet[uint32](t, c.cfg, 1<<20, c.spares) })
	}
}

// testWorkingSet measures the live heap of a fresh engine after two
// sorts of n keys, with the engine still alive and the sync.Pool caches
// emptied by two collections, and bounds it by spares × n × width +
// 1 MiB.
func testWorkingSet[E element.Elem](t *testing.T, cfg parbitonic.Config, n, spares int) {
	input := workload.Elems[E](workload.FullRange, n, 3)
	keys := make([]E, n)
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	e, err := parbitonic.NewEngineOf[E](cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 2; i++ {
		copy(keys, input)
		if _, err := e.Sort(keys); err != nil {
			t.Fatal(err)
		}
	}
	growth := heap() - before
	// The keys and the input stay live through the measurement, so only
	// the engine's own memory counts.
	runtime.KeepAlive(keys)
	runtime.KeepAlive(input)
	limit := int64(spares*n)*int64(element.TypeOf[E]().Width()) + 1<<20
	if growth > limit {
		t.Errorf("engine holds %.2f MiB after two sorts of %d keys, want at most %.2f MiB",
			float64(growth)/(1<<20), n, float64(limit)/(1<<20))
	}
}
