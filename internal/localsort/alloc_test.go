// The race runtime instruments with allocations of its own, so the
// allocator-accounting assertions only mean something unraced.
//go:build !race

package localsort_test

import (
	"fmt"
	"testing"

	"parbitonic/element"
	"parbitonic/internal/bitseq"
	"parbitonic/internal/localsort"
	"parbitonic/internal/workload"
	"parbitonic/internal/workpool"
)

// The kernels promise zero steady-state allocations when the caller
// supplies scratch: count tables are stashed or stack-resident,
// the merges' run tables and chunk buffers are stashed, the ping-pong
// layouts end in place, and the tiled kernels carve their per-tile
// scratch out of the caller's and draw their tile states from a stash.
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
	// Keys fill the key width, so 64-bit keys spread over the hybrid's
	// regions as 32-bit ones do.
	keys := workload.FullWidth[E](allocN, 42)
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
		localsort.MergeTwo(dst, a, b)
	})

	// FullSort's shapes: two contiguous runs (the two-run kernel) and
	// four (the chunked cascade), then deal views read in place out of
	// sorted arrays: every second key of two, every fourth key of four,
	// and segments of two at stride 16 of eight.
	q := allocN / 4
	two := []localsort.RunOf[E]{{Keys: a}, {Keys: b}}
	four := []localsort.RunOf[E]{{Keys: a[:q]}, {Keys: a[q:]}, {Keys: b[:q]}, {Keys: b[q:]}}
	assertZeroAllocs(t, "MergeRuns/2", func() {
		localsort.MergeRuns(dst, two)
	})
	assertZeroAllocs(t, "MergeRuns/4", func() {
		localsort.MergeRuns(dst, four)
	})
	sorted := make([][]E, 8)
	for i := range sorted {
		sorted[i] = workload.Elems[E](workload.Sorted, allocN, uint64(3+i))
	}
	views := func(s, c int) []localsort.RunOf[E] {
		runs := make([]localsort.RunOf[E], 1<<c)
		for i := range runs {
			runs[i] = localsort.DealtRun(sorted[i], s, c, 1, i%2 != 0)
		}
		return runs
	}
	for _, v := range []struct {
		name string
		runs []localsort.RunOf[E]
	}{
		{"MergeRuns/2-strided", views(0, 1)},
		{"MergeRuns/4-strided", views(0, 2)},
		{"MergeRuns/8-segmented", views(1, 3)},
	} {
		assertZeroAllocs(t, v.name, func() {
			localsort.MergeRuns(dst, v.runs)
		})
	}
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

	// The radix hybrid on a 4-lane pool, and on a 3-lane one at the
	// 2^19-key share of a P=2 sort of 2^20 keys, whose keys fill half
	// its regions.
	three := workpool.New(3)
	defer three.Close()
	for _, c := range []struct {
		lg   int
		dist workload.Dist
		pool *workpool.Pool
	}{{17, workload.FullRange, par}, {19, workload.Uniform31, three}} {
		in := workload.Elems[uint32](c.dist, 1<<c.lg, 7)
		scratch := make([]uint32, len(in))
		seq := append([]uint32(nil), in...)
		localsort.SetPool(one)
		localsort.RadixSortTo(seq, scratch, false)
		got := append([]uint32(nil), in...)
		localsort.SetPool(c.pool)
		localsort.RadixSortTo(got, scratch, true) // lands in scratch
		check(fmt.Sprintf("RadixSortTo/2^%d", c.lg), scratch, seq)
	}

	n := 1 << 17
	in := workload.Elems[uint32](workload.FullRange, n, 7)
	scratch := make([]uint32, n)

	seq := append([]uint32(nil), in...)
	localsort.SetPool(one)
	localsort.SortBitonicBlocks(seq, 2048, 2, scratch)
	got := append([]uint32(nil), in...)
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
