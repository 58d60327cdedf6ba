package localsort

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"parbitonic/element"
	"parbitonic/internal/bitseq"
	"parbitonic/internal/schedule"
	"parbitonic/internal/workpool"
)

func randomKeys(rng *rand.Rand, n int) []uint32 {
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = rng.Uint32()
	}
	return keys
}

func sortedCopy(keys []uint32) []uint32 {
	out := append([]uint32(nil), keys...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// randomElems draws n elements of type E: full-width integer keys,
// finite floats of either sign with -0 and +0 mixed in, and KV64
// records whose full 64-bit keys repeat (drawn from n/4+1 values) with
// the index as payload, so a stable sort has one correct output.
func randomElems[E element.Elem](rng *rand.Rand, n int) []E {
	pool := make([]uint64, n/4+1)
	for i := range pool {
		pool[i] = rng.Uint64()
	}
	out := make([]E, n)
	for i := range out {
		b := rng.Uint64()
		switch any(out[i]).(type) {
		case uint32:
			out[i] = any(uint32(b)).(E)
		case uint64:
			out[i] = any(b).(E)
		case float32:
			f := math.Float32frombits(uint32(b))
			if f != f || b>>60 == 0 {
				f = float32(math.Copysign(0, float64(int32(b))))
			}
			out[i] = any(f).(E)
		case float64:
			f := math.Float64frombits(b)
			if f != f || b>>60 == 0 {
				f = math.Copysign(0, float64(int64(b)))
			}
			out[i] = any(f).(E)
		default:
			out[i] = any(element.KV64{K: pool[rng.Intn(len(pool))], V: uint64(i)}).(E)
		}
	}
	return out
}

// TestRadixSortMatchesStdlib checks every element type against a
// stable sort by order image, through RadixSort and through
// RadixSortTo landing on either side. The hybrid partitions into the
// array it lands in, so the two landing sides run both of its
// directions. Sizes straddle the hybrid's threshold and every step of
// its partition width up to 2^20. Past the threshold the keys fill the
// key width, leave its top bit clear (half the regions empty), set the
// top bit and only bits below every partition (one oversize region),
// or are all equal. 64-bit images also occupy only their low w bits,
// the top one set, for every width the hybrid partitions under
// differently: none (all zero), one below its partition, around 32
// bits, and one short of the full width.
func TestRadixSortMatchesStdlib(t *testing.T) {
	for i, f := range []func(*testing.T){
		testRadixSortMatchesStdlib[uint32], testRadixSortMatchesStdlib[uint64],
		testRadixSortMatchesStdlib[float32], testRadixSortMatchesStdlib[float64],
		testRadixSortMatchesStdlib[element.KV64],
	} {
		t.Run(element.Types()[i].String(), f)
	}
}

func testRadixSortMatchesStdlib[E element.Elem](t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kb := element.KeyBits[E]()
	top := uint64(1) << (kb - 1)
	type shape struct {
		name  string
		f     func(e E, i int) E
		large bool // one region, or a narrowed width: powers of two suffice
	}
	shapes := []shape{
		{"full", func(e E, _ int) E { return e }, false},
		{"top-clear", func(e E, _ int) E { return element.FromBits[E](element.Bits(e)&^top, element.Aux(e)) }, false},
		{"one-region", func(e E, _ int) E {
			return element.FromBits[E](top|element.Bits(e)&(1<<(kb-hybridTopMax)-1), element.Aux(e))
		}, true},
		{"equal", func(_ E, i int) E { return element.FromBits[E](top|12345, uint64(i)) }, true},
	}
	if kb == 64 {
		for _, w := range []int{0, 4, 31, 32, 33, 63} {
			shapes = append(shapes, shape{fmt.Sprintf("width-%d", w), func(e E, i int) E {
				b := element.Bits(e) & (1<<w - 1)
				if i == 0 && w > 0 {
					b |= 1 << (w - 1)
				}
				return element.FromBits[E](b, element.Aux(e))
			}, true})
		}
	}
	sizes := []int{0, 1, 2, 3, 17, 256, 1000, 1 << 14, radixLargeMin - 1}
	for n := radixLargeMin; n <= 1<<20; n *= 2 {
		if n == radixLargeMin || hybridTop(n-1, kb) != hybridTop(n, kb) {
			sizes = append(sizes, n-1, n)
		}
	}
	for _, n := range sizes {
		for _, sh := range shapes {
			switch {
			case n < radixLargeMin && sh.name != "full":
				continue // the flat layout: full keys only
			case n&(n-1) != 0 && sh.large:
				continue
			}
			input := randomElems[E](rng, n)
			for i := range input {
				input[i] = sh.f(input[i], i)
			}
			check := func(how string, got []E) {
				t.Helper()
				if !sortedLike(got, input) {
					t.Fatalf("%s %s n=%d: not the stable sort of the input", how, sh.name, n)
				}
			}
			if n < radixLargeMin { // past it, as RadixSortTo(keys, scratch, false)
				keys := slices.Clone(input)
				RadixSort(keys)
				check("RadixSort", keys)
			}
			for _, toScratch := range []bool{false, true} {
				keys := slices.Clone(input)
				scratch := make([]E, n+1) // a longer scratch lands in its prefix
				RadixSortTo(keys, scratch, toScratch)
				got := keys
				if toScratch {
					got = scratch[:n]
				}
				check(fmt.Sprintf("RadixSortTo(toScratch=%v)", toScratch), got)
			}
		}
	}
}

// sortedLike reports whether got is the stable sort of in by order
// image, for inputs whose equal keys carry ascending distinct payloads
// (KV64 records) or none (key-only types): got must ascend by key, then
// payload, and hold in's multiset, compared by a sum of mixed hashes.
// The check is linear, so it runs at the hybrid's largest sizes.
func sortedLike[E element.Elem](got, in []E) bool {
	if len(got) != len(in) {
		return false
	}
	hash := func(e E) uint64 {
		x := element.Bits(e)*0x9e3779b97f4a7c15 ^ element.Aux(e)
		x ^= x >> 31
		x *= 0xbf58476d1ce4e5b9
		return x ^ x>>29
	}
	var sum uint64
	for i := range got {
		sum += hash(got[i]) - hash(in[i])
		if i > 0 && cmp.Or(cmp.Compare(element.Bits(got[i-1]), element.Bits(got[i])), cmp.Compare(element.Aux(got[i-1]), element.Aux(got[i]))) > 0 {
			return false
		}
	}
	return sum == 0
}

// TestRadixSortDeal checks FullSort's round 0 as its first merge sees
// it: a share sorted by RadixSortTo and read through DealtRun must give
// each group member exactly the message that the P=2 round-0 plan's
// pack walk builds from a stable sort, read in ascending order, for
// every element type, ascending and descending sender, and either
// landing side. Sizes straddle the hybrid's threshold and reach
// n = 2; the inputs include all-equal keys (every pass the identity)
// and keys that share their top 11 bits (one oversize hybrid region).
// Pools of 1 and 3 lanes run the sequential and the tiled finish.
func TestRadixSortDeal(t *testing.T) {
	defer SetPool(nil)
	for _, lanes := range []int{1, 3} {
		wp := workpool.New(lanes)
		SetPool(wp)
		for i, f := range []func(*testing.T){
			testRadixSortDeal[uint32], testRadixSortDeal[uint64],
			testRadixSortDeal[float32], testRadixSortDeal[float64],
			testRadixSortDeal[element.KV64],
		} {
			t.Run(fmt.Sprintf("%v/lanes=%d", element.Types()[i], lanes), f)
		}
		wp.Close()
	}
}

func testRadixSortDeal[E element.Elem](t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	kb := element.KeyBits[E]()
	gen := []struct {
		name string
		f    func(n int) []E
	}{
		{"random", func(n int) []E { return randomElems[E](rng, n) }},
		{"equal", func(n int) []E {
			out := make([]E, n)
			for i := range out {
				out[i] = element.FromBits[E](1<<(kb-1)|12345, uint64(i))
			}
			return out
		}},
		{"one-region", func(n int) []E {
			out := make([]E, n)
			for i := range out {
				low := rng.Uint64() & (1<<(kb-hybridTopMax) - 1)
				out[i] = element.FromBits[E](1<<(kb-1)|low, uint64(i))
			}
			return out
		}},
	}
	for _, n := range []int{2, 4, 256, radixLargeMin / 2, radixLargeMin, 2 * radixLargeMin} {
		plan := schedule.New(bits.TrailingZeros(uint(n))+1, 1, schedule.Head)[0].Plan
		for _, g := range gen {
			input := g.f(n)
			sorted := slices.Clone(input)
			slices.SortStableFunc(sorted, func(a, b E) int { return cmp.Compare(element.Bits(a), element.Bits(b)) })
			for proc, desc := range []bool{false, true} {
				// Sort, then pack by the walk: rank i sits at address i,
				// or n-1-i on the descending processor.
				msgs := make([][]E, plan.Old.P())
				for _, q := range plan.Dests(proc) {
					msgs[q] = make([]E, plan.MsgLen)
				}
				w := plan.PackWalk(proc, desc)
				for _, v := range sorted {
					msgs[w.A][w.B] = v
					w = w.Next()
				}
				for _, toScratch := range []bool{false, true} {
					keys := slices.Clone(input)
					scratch := make([]E, n+1) // a longer scratch lands in its prefix
					RadixSortTo(keys, scratch, toScratch)
					got := keys
					if toScratch {
						got = scratch[:n]
					}
					for member, q := range plan.Dests(proc) {
						want := slices.Clone(msgs[q])
						if desc {
							slices.Reverse(want)
						}
						run := DealtRun(got, 0, 1, member, desc)
						if run.Len() != len(want) {
							t.Fatalf("%s n=%d desc=%v: member %d's run holds %d keys, want %d", g.name, n, desc, member, run.Len(), len(want))
						}
						for i := range want {
							if v := run.Keys[i*run.Stride]; element.Bits(v) != element.Bits(want[i]) || element.Aux(v) != element.Aux(want[i]) {
								t.Fatalf("%s n=%d desc=%v toScratch=%v member %d: mismatch at %d: got %v want %v", g.name, n, desc, toScratch, member, i, v, want[i])
							}
						}
					}
				}
			}
		}
	}
}

func TestRadixSortExtremeValues(t *testing.T) {
	keys := []uint32{^uint32(0), 0, 1, ^uint32(0) - 1, 0, 1 << 31, (1 << 31) - 1}
	want := sortedCopy(keys)
	RadixSort(keys)
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("mismatch at %d: %v", i, keys)
		}
	}
}

func TestSortDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	keys := randomKeys(rng, 999)
	want := sortedCopy(keys)
	Sort(keys, false)
	for i := range want {
		if keys[len(keys)-1-i] != want[i] {
			t.Fatalf("descending sort wrong at %d", i)
		}
	}
}

func TestQuickRadixSortIsSortingNetworkEquivalent(t *testing.T) {
	f := func(keys []uint32) bool {
		mine := append([]uint32(nil), keys...)
		RadixSort(mine)
		want := sortedCopy(keys)
		for i := range want {
			if mine[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		a := sortedCopy(randomKeys(rng, rng.Intn(50)))
		b := sortedCopy(randomKeys(rng, rng.Intn(50)))
		dst := make([]uint32, len(a)+len(b))
		MergeTwo(dst, a, b)
		want := sortedCopy(append(append([]uint32{}, a...), b...))
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("merge wrong at %d", i)
			}
		}
	}
}

func TestMergeTwoPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	MergeTwo(make([]uint32, 3), make([]uint32, 1), make([]uint32, 1))
}

func TestMergeRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		p := 1 + rng.Intn(9)
		var runs []Run
		var all []uint32
		for i := 0; i < p; i++ {
			keys := sortedCopy(randomKeys(rng, rng.Intn(40)))
			all = append(all, keys...)
			if rng.Intn(2) == 0 {
				// Read every second element of an interleaved array.
				arr := make([]uint32, 2*len(keys))
				for j, v := range keys {
					arr[2*j], arr[2*j+1] = v, ^v
				}
				runs = append(runs, Run{Keys: arr, Stride: 2})
			} else {
				runs = append(runs, Run{Keys: keys})
			}
		}
		dst := make([]uint32, len(all))
		MergeRuns(dst, runs)
		want := sortedCopy(all)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("trial %d (p=%d): wrong at %d", trial, p, i)
			}
		}
	}
}

func TestMergeRunsEdgeCases(t *testing.T) {
	MergeRuns[uint32](nil, nil) // empty: no panic
	dst := make([]uint32, 3)
	MergeRuns(dst, []Run{{Keys: []uint32{1, 9, 2, 9, 3}, Stride: 2}})
	if dst[0] != 1 || dst[1] != 2 || dst[2] != 3 {
		t.Errorf("single strided run: %v", dst)
	}
	// A segmented run alone, its partial last segment not read.
	dst = make([]uint32, 4)
	MergeRuns(dst, []Run{{Keys: []uint32{1, 2, 9, 9, 3, 4, 9, 9, 5}, Stride: 4, Seg: 2}})
	if dst[0] != 1 || dst[1] != 2 || dst[2] != 3 || dst[3] != 4 {
		t.Errorf("single segmented run: %v", dst)
	}
	// Runs with empty slices mixed in.
	dst = make([]uint32, 2)
	MergeRuns(dst, []Run{{}, {Keys: []uint32{5, 9}}, {}})
	if dst[0] != 5 || dst[1] != 9 {
		t.Errorf("empty-run merge: %v", dst)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	MergeRuns(make([]uint32, 1), []Run{{Keys: []uint32{1, 2}}})
}

func makeBitonicBlock(rng *rand.Rand, n int) []uint32 {
	keys := sortedCopy(randomKeys(rng, n))
	up := 1 + rng.Intn(n)
	blk := make([]uint32, 0, n)
	blk = append(blk, keys[n-up:]...)
	for i := n - up - 1; i >= 0; i-- {
		blk = append(blk, keys[i])
	}
	return bitseq.Rotate(blk, rng.Intn(n))
}

func TestSortBitonicBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		blockLen := 1 << (1 + rng.Intn(6))
		blocks := 1 + rng.Intn(8)
		keys := make([]uint32, 0, blockLen*blocks)
		for b := 0; b < blocks; b++ {
			keys = append(keys, makeBitonicBlock(rng, blockLen)...)
		}
		descMask := rng.Intn(8)
		dirs := make([]bool, blocks)
		for b := range dirs {
			dirs[b] = b&descMask == 0
		}
		want := make([][]uint32, blocks)
		for b := 0; b < blocks; b++ {
			want[b] = sortedCopy(keys[b*blockLen : (b+1)*blockLen])
		}
		SortBitonicBlocks(keys, blockLen, descMask, nil)
		for b := 0; b < blocks; b++ {
			for i := 0; i < blockLen; i++ {
				got := keys[b*blockLen+i]
				exp := want[b][i]
				if !dirs[b] {
					exp = want[b][blockLen-1-i]
				}
				if got != exp {
					t.Fatalf("block %d dir %v wrong at %d", b, dirs[b], i)
				}
			}
		}
	}
}

func TestSortBitonicBlocksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on indivisible block length")
		}
	}()
	SortBitonicBlocks(make([]uint32, 10), 3, 0, nil)
}

// TestSortBitonicStridedBatch plants a bitonic sequence in every
// column of a strided array and checks that each column comes out
// sorted in the direction asked, on a 1-lane and a 3-lane pool, with
// no scratch, a scratch that holds two columns, and a full one.
func TestSortBitonicStridedBatch(t *testing.T) {
	defer SetPool(nil)
	rng := rand.New(rand.NewSource(6))
	for _, lanes := range []int{1, 3} {
		wp := workpool.New(lanes)
		SetPool(wp)
		for trial := 0; trial < 100; trial++ {
			stride := 1 << rng.Intn(10)
			count := 1 << (1 + rng.Intn(6))
			keys := make([]uint32, stride*count)
			for d := 0; d < stride; d++ {
				for i, v := range makeBitonicBlock(rng, count) {
					keys[d+i*stride] = v
				}
			}
			before := slices.Clone(keys)
			asc := rng.Intn(2) == 0
			scratch := [][]uint32{nil, make([]uint32, 2*count), make([]uint32, len(keys))}[trial%3]
			SortBitonicStridedBatch(keys, stride, count, asc, scratch)
			for d := 0; d < stride; d++ {
				var got, all []uint32
				for i := 0; i < count; i++ {
					got = append(got, keys[d+i*stride])
					all = append(all, before[d+i*stride])
				}
				want := sortedCopy(all)
				if !asc {
					slices.Reverse(want)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("lanes=%d stride=%d count=%d asc=%v: column %d not sorted", lanes, stride, count, asc, d)
				}
			}
		}
		wp.Close()
	}
}

func BenchmarkRadixSort(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	keys := randomKeys(rng, 1<<16)
	work := make([]uint32, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, keys)
		RadixSort(work)
	}
}

func BenchmarkSortBitonicVsRadix(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	blk := makeBitonicBlock(rng, 1<<16)
	b.Run("bitonic-merge-sort", func(b *testing.B) {
		dst := make([]uint32, len(blk))
		for i := 0; i < b.N; i++ {
			bitseq.SortBitonic(dst, blk, true)
		}
	})
	b.Run("radix-sort", func(b *testing.B) {
		work := make([]uint32, len(blk))
		for i := 0; i < b.N; i++ {
			copy(work, blk)
			RadixSort(work)
		}
	})
}

// BenchmarkMergeRuns times the merge kernels on FullSort's shapes,
// 2^19 uint32 keys out: two contiguous runs (the last merge at P=2),
// four through the chunked cascade, and deal views read in place out of
// sorted arrays of 2^19 keys, their senders alternating in direction:
// every second key of two (round 0 at P=2), every fourth key of four
// (the crossing at P=4), and segments of two at stride 16 of eight
// (P=8's s=1, c=3 crossing).
func BenchmarkMergeRuns(b *testing.B) {
	const half = 1 << 18
	rng := rand.New(rand.NewSource(9))
	mk := func(n int) Run { return Run{Keys: sortedCopy(randomKeys(rng, n))} }
	views := func(s, c int) []Run {
		runs := make([]Run, 1<<c)
		for q := range runs {
			runs[q] = DealtRun(mk(2*half).Keys, s, c, 0, q%2 != 0)
		}
		return runs
	}
	dst := make([]uint32, 2*half)
	for _, bc := range []struct {
		name string
		runs []Run
	}{
		{"two", []Run{mk(half), mk(half)}},
		{"four", []Run{mk(half / 2), mk(half / 2), mk(half / 2), mk(half / 2)}},
		{"two-strided", views(0, 1)},
		{"four-crossing", views(0, 2)},
		{"eight-segmented", views(1, 3)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MergeRuns(dst, bc.runs)
			}
		})
	}
}
