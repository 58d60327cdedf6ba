// The race runtime instruments with allocations of its own, so the
// allocator-accounting assertions only mean something unraced.
//go:build !race

package localsort_test

import (
	"fmt"
	"testing"

	"parbitonic/element"
	"parbitonic/internal/addr"
	"parbitonic/internal/bitseq"
	"parbitonic/internal/localsort"
	"parbitonic/internal/schedule"
	"parbitonic/internal/workload"
	"parbitonic/internal/workpool"
)

// The kernels promise zero steady-state allocations when the caller
// supplies scratch: count tables are stashed, pooled or stack-resident, runs
// tables live on the stack, the routed merge steps its plan's walk
// instead of reading a routing table, the ping-pong layouts end in
// place, and the tiled kernels carve their per-tile scratch out of the
// caller's and draw their tile states from a stash.
// These tests pin that promise with the allocator's own accounting, on
// a 1-lane pool (the sequential paths) and on a 2-lane one (the tile
// dispatch), so they mean the same thing on any host; the tiled paths'
// output is checked in TestKernelsParallelPoolMatchSequential.

const allocN = 1 << 16 // past radixLargeMin, so the hybrid path runs

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f() // warm the buffer pools before measuring
	if avg := testing.AllocsPerRun(10, f); avg != 0 {
		t.Errorf("%s: %.1f allocs/op in steady state, want 0", name, avg)
	}
}

func runKernelAllocs[E element.Elem](t *testing.T) {
	keys := workload.Elems[E](workload.FullRange, allocN, 42)
	scratch := make([]E, allocN)

	for _, toScratch := range []bool{false, true} {
		assertZeroAllocs(t, fmt.Sprintf("RadixSortTo(toScratch=%v)", toScratch), func() {
			localsort.RadixSortTo(keys, scratch, toScratch)
		})
	}
	small := keys[:256] // the flat 8-bit layout
	assertZeroAllocs(t, "RadixSortTo/small", func() {
		localsort.RadixSortTo(small, scratch, true)
	})
	assertZeroAllocs(t, "SortScratch", func() {
		localsort.SortScratch(keys, false, scratch)
	})

	a := workload.Elems[E](workload.Sorted, allocN/2, 1)
	b := workload.Elems[E](workload.Sorted, allocN/2, 2)
	dst := make([]E, allocN)
	assertZeroAllocs(t, "MergeTwo", func() {
		localsort.MergeTwo(dst, a, b, true)
	})

	// FullSort's shapes: runs with one read from its tail, merged into
	// dst (two-run kernel, loser tree) or routed into two buffers.
	desc := append([]E(nil), b...)
	localsort.Reverse(desc)
	two := []localsort.RunOf[E]{{Keys: a}, {Keys: desc, Desc: true}}
	q := allocN / 4
	four := []localsort.RunOf[E]{{Keys: a[:q]}, {Keys: a[q:]}, {Keys: desc[:q], Desc: true}, {Keys: desc[q:], Desc: true}}
	assertZeroAllocs(t, "MergeRuns/2", func() {
		localsort.MergeRuns(dst, two)
	})
	assertZeroAllocs(t, "MergeRuns/4", func() {
		localsort.MergeRuns(dst, four)
	})
	out := [][]E{make([]E, allocN/2), make([]E, allocN/2)}
	plan := addr.NewRemapPlan(addr.Blocked(17, 1), addr.Cyclic(17, 1))
	assertZeroAllocs(t, "MergeRunsRouted/2", func() {
		localsort.MergeRunsRouted(out, plan, 0, two, false)
	})
	assertZeroAllocs(t, "MergeRunsRouted/4", func() {
		localsort.MergeRunsRouted(out, plan, 0, four, true)
	})
	// The P=2 last remap: each half of the array is one pack segment.
	last := schedule.New(17, 1, schedule.Head)[1].Plan
	assertZeroAllocs(t, "MergeRunsRouted/2-segments", func() {
		localsort.MergeRunsRouted(out, last, 0, two, false)
	})
	// FullSort's first merge: every second key of two sorted arrays,
	// read in place, routed through the same plan.
	wa := workload.Elems[E](workload.Sorted, allocN, 3)
	wb := workload.Elems[E](workload.Sorted, allocN, 4)
	strided := []localsort.RunOf[E]{localsort.DealtRun(wa, 0, false), localsort.DealtRun(wb, 0, true)}
	assertZeroAllocs(t, "MergeRunsRouted/2-strided", func() {
		localsort.MergeRunsRouted(out, last, 0, strided, true)
	})
	assertZeroAllocs(t, "SortBitonicBlocks", func() {
		localsort.SortBitonicBlocks(keys, 1024, 1, scratch)
	})
	assertZeroAllocs(t, "SortBitonicStridedBatch", func() {
		localsort.SortBitonicStridedBatch(keys, 256, allocN/256, true, scratch)
	})

	localsort.Sort(keys, true) // bitonic input for the bitseq kernels
	localsort.Reverse(keys[allocN/2:])
	assertZeroAllocs(t, "bitseq.Split", func() {
		bitseq.Split(keys)
	})
	assertZeroAllocs(t, "bitseq.Merge", func() {
		bitseq.Merge(keys, true)
	})
	tmp := make([]E, allocN)
	assertZeroAllocs(t, "bitseq.SortBitonic", func() {
		bitseq.SortBitonic(tmp, keys, true)
	})
}

// TestKernelAllocs asserts every localsort kernel runs allocation-free
// in steady state for all five element types, on pools of 1 and 2
// lanes.
func TestKernelAllocs(t *testing.T) {
	defer localsort.SetPool(nil)
	lanes := func(f func(*testing.T)) func(*testing.T) {
		return func(t *testing.T) {
			for _, size := range []int{1, 2} {
				wp := workpool.New(size)
				localsort.SetPool(wp)
				f(t)
				wp.Close()
			}
		}
	}
	t.Run("u32", lanes(runKernelAllocs[uint32]))
	t.Run("u64", lanes(runKernelAllocs[uint64]))
	t.Run("f32", lanes(runKernelAllocs[float32]))
	t.Run("f64", lanes(runKernelAllocs[float64]))
	t.Run("kv64", lanes(runKernelAllocs[element.KV64]))
}

// TestKernelsParallelPoolMatchSequential runs the tiled kernel paths
// under a multi-lane pool — regardless of host core count — and checks
// they produce exactly what the sequential paths produce. Run with
// -race, this also exercises the tile hand-off.
func TestKernelsParallelPoolMatchSequential(t *testing.T) {
	par := workpool.New(4)
	defer par.Close()

	check := func(name string, got, want []uint32) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: diverges from sequential at %d: got %d, want %d", name, i, got[i], want[i])
			}
		}
	}

	one := workpool.New(1)
	defer one.Close()
	defer localsort.SetPool(nil)

	n := 1 << 17
	in := workload.Elems[uint32](workload.FullRange, n, 7)
	scratch := make([]uint32, n)

	seq := append([]uint32(nil), in...)
	localsort.SetPool(one)
	localsort.RadixSortTo(seq, scratch, false)
	got := append([]uint32(nil), in...)
	localsort.SetPool(par)
	localsort.RadixSortTo(got, scratch, true) // lands in scratch
	check("RadixSortTo", scratch, seq)

	seq = append([]uint32(nil), in...)
	localsort.SetPool(one)
	localsort.SortBitonicBlocks(seq, 2048, 2, scratch)
	got = append([]uint32(nil), in...)
	localsort.SetPool(par)
	localsort.SortBitonicBlocks(got, 2048, 2, scratch)
	check("SortBitonicBlocks", got, seq)

	seq = append([]uint32(nil), in...)
	localsort.SetPool(one)
	localsort.SortBitonicStridedBatch(seq, 512, n/512, false, scratch)
	got = append([]uint32(nil), in...)
	localsort.SetPool(par)
	localsort.SortBitonicStridedBatch(got, 512, n/512, false, scratch)
	check("SortBitonicStridedBatch", got, seq)
}
