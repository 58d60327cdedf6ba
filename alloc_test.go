// The race runtime instruments with allocations of its own, so the
// allocator-accounting assertions only mean something unraced.
//go:build !race

package parbitonic_test

import (
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
// (the engine keeps persistent workers), no message-buffer churn (the
// per-processor free lists circulate every array), no table rebuilds
// (the compiled body, the plans' routing deltas and the FullSort run
// table persist). Covered at P=1 (the in-place local path), P=4
// (staging, FullSort merges and the exchange board), P=8 at 16 keys a
// processor (the optimized smart phases over the gather Remap) and the
// cyclic-blocked baseline (Remap with strided local sorts). The
// kernel pool is pinned to one lane so the assertion means the same
// thing on any host. One more case, smart P=2 over 2^20 keys on a
// 2-lane pool, covers the default shape at the paper's size: its
// shares reach the hybrid radix, whose region tiles go to the pool's
// helper, and FullSort sorts in the caller's slice.
func TestNativeSortZeroAllocs(t *testing.T) {
	seq := workpool.New(1)
	defer seq.Close()
	localsort.SetPool(seq)
	defer localsort.SetPool(nil)

	run := func(t *testing.T, name string, f func() error) {
		t.Helper()
		for i := 0; i < 2; i++ { // warm the free lists and spawn workers
			if err := f(); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(10, func() { f() }); avg != 0 {
			t.Errorf("%s: %.1f allocs/op in steady state, want 0", name, avg)
		}
	}

	for _, c := range []struct {
		name string
		p, n int
		alg  parbitonic.Algorithm
	}{
		{"smart P=1", 1, 1 << 14, parbitonic.SmartBitonic},
		{"smart P=4", 4, 1 << 14, parbitonic.SmartBitonic},
		{"smart P=8", 8, 128, parbitonic.SmartBitonic},
		{"cyclic-blocked P=4", 4, 1 << 14, parbitonic.CyclicBlockedBitonic},
	} {
		e, err := parbitonic.NewEngineOf[uint32](parbitonic.Config{
			Processors: c.p, Algorithm: c.alg, Backend: parbitonic.Native,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		keys := workload.Elems[uint32](workload.FullRange, c.n, 5)
		run(t, c.name, func() error { _, err := e.Sort(keys); return err })
	}

	t.Run("smart P=2 2^20 keys, 2 lanes", func(t *testing.T) {
		lanes := workpool.New(2)
		defer lanes.Close()
		localsort.SetPool(lanes)
		defer localsort.SetPool(seq)
		e, err := parbitonic.NewEngineOf[uint32](parbitonic.Config{
			Processors: 2, Backend: parbitonic.Native,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		input := workload.Elems[uint32](workload.FullRange, 1<<20, 7)
		keys := make([]uint32, len(input))
		run(t, "smart P=2 2^20", func() error {
			copy(keys, input)
			_, err := e.Sort(keys)
			return err
		})
	})

	// The record path moves twice the bytes through the same machinery.
	ekv, err := parbitonic.NewEngineOf[element.KV64](parbitonic.Config{
		Processors: 4, Backend: parbitonic.Native,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ekv.Close()
	recs := workload.Elems[element.KV64](workload.FullRange, 1<<14, 9)
	run(t, "kv64 smart P=4", func() error { _, err := ekv.Sort(recs); return err })
}
