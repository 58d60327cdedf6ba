package localsort_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"parbitonic/element"
	"parbitonic/internal/addr"
	"parbitonic/internal/intbits"
	"parbitonic/internal/localsort"
	"parbitonic/internal/schedule"
)

// The merge kernels' contract, checked for every element type: the
// contiguous and the routed emission both equal a stable sort of the
// runs taken in run order (each run read in its ascending direction),
// so equal keys come out in run order and, within a run, in the run's
// own order. KV64 records carry a unique payload, so a tie broken the
// wrong way shows as a payload out of place.

// mkElem builds the element for key rank k; id is the KV64 payload.
// Float keys straddle zero; rank domain/2 is -0 for odd ids and +0
// for even ones, two bit patterns that tie under float order.
func mkElem[E element.Elem](k, domain, id int) E {
	var e E
	switch any(e).(type) {
	case uint32:
		return any(uint32(k)).(E)
	case uint64:
		return any(uint64(k)<<33 | 1).(E)
	case float32:
		f := float32(k - domain/2)
		if k == domain/2 && id%2 == 1 {
			f = float32(math.Copysign(0, -1))
		}
		return any(f).(E)
	case float64:
		f := float64(k-domain/2) / 4
		if k == domain/2 && id%2 == 1 {
			f = math.Copysign(0, -1)
		}
		return any(f).(E)
	default:
		return any(element.KV64{K: uint64(k), V: uint64(id)}).(E)
	}
}

func cmpElem[E element.Elem](a, b E) int {
	switch {
	case element.Less(a, b):
		return -1
	case element.Less(b, a):
		return 1
	}
	return 0
}

// sameBits compares elements bit for bit, so -0 and +0 differ and a
// KV64 payload counts.
func sameBits[E element.Elem](a, b E) bool {
	if r, ok := any(a).(element.KV64); ok {
		return r == any(b).(element.KV64)
	}
	return element.Bits(a) == element.Bits(b)
}

// mergeOracle is the expected merge: the runs' elements in ascending
// read order, concatenated in run order, stably sorted.
func mergeOracle[E element.Elem](runs []localsort.RunOf[E]) []E {
	var all []E
	for _, r := range runs {
		var seq []E
		for i := 0; i < len(r.Keys); i += max(r.Stride, 1) {
			seq = append(seq, r.Keys[i])
		}
		if r.Desc {
			slices.Reverse(seq)
		}
		all = append(all, seq...)
	}
	slices.SortStableFunc(all, cmpElem[E])
	return all
}

// randomRuns builds sorted runs of the given lengths over a key domain
// of the given size (1 makes every key equal, a few makes heavy
// duplicates); bit r of descMask marks run r Desc.
func randomRuns[E element.Elem](rng *rand.Rand, lens []int, domain int, descMask uint, id *int) []localsort.RunOf[E] {
	runs := make([]localsort.RunOf[E], len(lens))
	for r := range runs {
		keys := make([]E, lens[r])
		for i := range keys {
			keys[i] = mkElem[E](rng.Intn(domain), domain, *id)
			*id++
		}
		slices.SortStableFunc(keys, cmpElem[E])
		desc := descMask>>uint(r)&1 == 1
		if desc {
			slices.Reverse(keys)
		}
		runs[r] = localsort.RunOf[E]{Keys: keys, Desc: desc}
	}
	return runs
}

// randomLens returns p random run lengths, 0 included.
func randomLens(rng *rand.Rand, p int) []int {
	lens := make([]int, p)
	for r := range lens {
		lens[r] = rng.Intn(4) * rng.Intn(12)
	}
	return lens
}

// pow2Lens cuts a power-of-two total of at most 64 into p random run
// lengths, 0 included: a routed merge always fills one remap's local
// array.
func pow2Lens(rng *rand.Rand, p int) []int {
	n := 1 << uint(rng.Intn(7))
	cuts := []int{0, n}
	for r := 1; r < p; r++ {
		cuts = append(cuts, rng.Intn(n+1))
	}
	slices.Sort(cuts)
	lens := make([]int, p)
	for r := range lens {
		lens[r] = cuts[r+1] - cuts[r]
	}
	return lens
}

// randomLayout places lgN absolute-address bits at random, lgP of them
// selecting the processor.
func randomLayout(rng *rand.Rand, lgN, lgP int) *addr.Layout {
	perm := rng.Perm(lgN)
	return &addr.Layout{LgN: lgN, LgP: lgP, ProcBits: perm[:lgP], LocalBits: perm[lgP:], Name: "random"}
}

// randomRoute is a remap between two random bit-permutation layouts
// over n local keys and up to 4 processors, and a processor of it.
func randomRoute(rng *rand.Rand, n int) (*addr.RemapPlan, int) {
	lgP := rng.Intn(3)
	lgN := intbits.Log2(n) + lgP
	plan := addr.NewRemapPlan(randomLayout(rng, lgN, lgP), randomLayout(rng, lgN, lgP))
	return plan, rng.Intn(1 << uint(lgP))
}

func runsTotal[E element.Elem](runs []localsort.RunOf[E]) int {
	n := 0
	for _, r := range runs {
		n += r.Len()
	}
	return n
}

// segmentRoutes returns remaps over n local keys whose pack segments
// span more than one key: every remap of the smart schedule at P = 2,
// 4 and 8 (FullSort's routes) and blocked to its last layout.
func segmentRoutes(n int) []*addr.RemapPlan {
	var plans []*addr.RemapPlan
	for lgP := 1; lgP <= 3; lgP++ {
		lgN := intbits.Log2(n) + lgP
		sched := schedule.New(lgN, lgP, schedule.Head)
		for _, r := range sched {
			plans = append(plans, r.Plan)
		}
		plans = append(plans, addr.NewRemapPlan(addr.Blocked(lgN, lgP), sched[len(sched)-1].Layout))
	}
	return plans
}

// checkMerge runs MergeRuns on runs and compares it with want.
func checkMerge[E element.Elem](t *testing.T, label string, runs []localsort.RunOf[E], want []E) {
	t.Helper()
	dst := make([]E, len(want))
	localsort.MergeRuns(dst, runs)
	for i := range want {
		if !sameBits(dst[i], want[i]) {
			t.Fatalf("%s: MergeRuns[%d] = %v, want %v", label, i, dst[i], want[i])
		}
	}
}

// checkRouted runs MergeRunsRouted on runs through processor proc of
// plan, in both region directions, and compares every local address
// with want.
func checkRouted[E element.Elem](t *testing.T, label string, plan *addr.RemapPlan, proc int, runs []localsort.RunOf[E], want []E) {
	t.Helper()
	n := len(want)
	out := make([][]E, plan.Old.P()) // entries outside the group stay nil
	for _, q := range plan.Dests(proc) {
		out[q] = make([]E, plan.MsgLen)
	}
	for _, asc := range []bool{true, false} {
		localsort.MergeRunsRouted(out, plan, proc, runs, asc)
		for l := 0; l < n; l++ {
			rank := l
			if !asc {
				rank = n - 1 - l
			}
			if got := out[plan.Dest(proc, l)][plan.PackOffset(l)]; !sameBits(got, want[rank]) {
				t.Fatalf("%s segment=%d asc=%v: routed local %d = %v, want %v", label, plan.PackSegment(), asc, l, got, want[rank])
			}
		}
	}
}

func runMergeProperties[E element.Elem](t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	id := 0
	for p := 0; p <= 5; p++ {
		for mask := uint(0); mask < 1<<uint(p); mask++ {
			for _, domain := range []int{1, 3, 1 << 20} {
				for trial := 0; trial < 4; trial++ {
					label := fmt.Sprintf("p=%d desc=%b domain=%d", p, mask, domain)
					runs := randomRuns[E](rng, randomLens(rng, p), domain, mask, &id)
					checkMerge(t, label, runs, mergeOracle(runs))
					if p == 0 {
						continue // no local array is empty
					}
					runs = randomRuns[E](rng, pow2Lens(rng, p), domain, mask, &id)
					plan, proc := randomRoute(rng, runsTotal(runs))
					checkRouted(t, label, plan, proc, runs, mergeOracle(runs))
				}
			}
		}
	}

	// FullSort's shape: two runs of equal length. A power-of-two total
	// is routed through segments of every length FullSort meets, and two
	// ascending runs also go through MergeTwo both ways.
	for _, m := range []int{1, 2, 3, 64, 1000, 1024} {
		for mask := uint(0); mask < 4; mask++ {
			for _, domain := range []int{1, 3, 1 << 20} {
				label := fmt.Sprintf("m=%d desc=%b domain=%d", m, mask, domain)
				runs := randomRuns[E](rng, []int{m, m}, domain, mask, &id)
				want := mergeOracle(runs)
				checkMerge(t, label, runs, want)
				if mask == 0 {
					dst := make([]E, 2*m)
					for _, asc := range []bool{true, false} {
						localsort.MergeTwo(dst, runs[0].Keys, runs[1].Keys, asc)
						for i := range want {
							j := i
							if !asc {
								j = 2*m - 1 - i
							}
							if !sameBits(dst[j], want[i]) {
								t.Fatalf("%s asc=%v: MergeTwo[%d] = %v, want %v", label, asc, j, dst[j], want[i])
							}
						}
					}
				}
				if m&(m-1) != 0 {
					continue
				}
				for _, plan := range segmentRoutes(2 * m) {
					for proc := 0; proc < plan.Old.P(); proc++ {
						checkRouted(t, label, plan, proc, runs, want)
					}
				}
			}
		}
	}
}

// TestMergeKernelsMatchStableOracle runs the property over all five
// element types, 0-5 runs, every Desc mix, empty runs, all-equal keys
// and heavy duplicates, and over FullSort's two equal runs routed
// through pack segments of every length.
func TestMergeKernelsMatchStableOracle(t *testing.T) {
	t.Run("u32", runMergeProperties[uint32])
	t.Run("u64", runMergeProperties[uint64])
	t.Run("f32", runMergeProperties[float32])
	t.Run("f64", runMergeProperties[float64])
	t.Run("kv64", runMergeProperties[element.KV64])
}

// stridedRun returns every second element of a sorted array of 2m
// elements over domain from offset o, the shape of a round-0 message
// read in place; a Desc run's array is stored descending.
func stridedRun[E element.Elem](rng *rand.Rand, m, o, domain int, desc bool, id *int) localsort.RunOf[E] {
	arr := randomRuns[E](rng, []int{2 * m}, domain, 0, id)[0].Keys
	if desc {
		slices.Reverse(arr)
	}
	return localsort.RunOf[E]{Keys: arr[o:], Desc: desc, Stride: 2}
}

func runStridedMergeProperties[E element.Elem](t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	id := 0
	keyByKey := false
	for _, m := range []int{1, 2, 3, 64, 1000, 1024} {
		for mask := uint(0); mask < 16; mask++ {
			// Bits 0 and 1 pick each run's offset, bits 2 and 3 mark it
			// Desc, so both parities meet both directions.
			o0, o1 := int(mask&1), int(mask>>1&1)
			for _, domain := range []int{1, 3, 1 << 20} {
				label := fmt.Sprintf("m=%d mask=%04b domain=%d", m, mask, domain)
				runs := []localsort.RunOf[E]{
					stridedRun[E](rng, m, o0, domain, mask&4 != 0, &id),
					stridedRun[E](rng, m, o1, domain, mask&8 != 0, &id),
				}
				want := mergeOracle(runs)
				checkMerge(t, label, runs, want)
				// One strided run beside a contiguous one, and alone.
				mixed := []localsort.RunOf[E]{runs[0], randomRuns[E](rng, []int{m}, domain, mask>>3, &id)[0]}
				checkMerge(t, label+" mixed", mixed, mergeOracle(mixed))
				checkMerge(t, label+" alone", runs[1:], mergeOracle(runs[1:]))
				tree := append(slices.Clone(runs), mixed[1])
				checkMerge(t, label+" tree", tree, mergeOracle(tree))
				if m&(m-1) != 0 {
					continue
				}
				for _, plan := range segmentRoutes(2 * m) {
					keyByKey = keyByKey || plan.PackSegment() == 1 && m > 1
					for proc := 0; proc < plan.Old.P(); proc++ {
						checkRouted(t, label, plan, proc, runs, want)
					}
				}
			}
		}
	}
	if !keyByKey {
		t.Fatal("no route went key by key")
	}
}

// TestMergeStridedRuns checks the merge kernels on strided runs, the
// shape of FullSort's first merge, which reads each peer's message as
// every second key of the peer's sorted array: for all five element
// types, runs of both offsets stored either way, merged contiguously,
// beside a contiguous run, alone, through the loser tree, and routed
// in both region directions through every FullSort remap at P=2, 4
// and 8, the first merge's among them, at least one key by key.
func TestMergeStridedRuns(t *testing.T) {
	t.Run("u32", runStridedMergeProperties[uint32])
	t.Run("u64", runStridedMergeProperties[uint64])
	t.Run("f32", runStridedMergeProperties[float32])
	t.Run("f64", runStridedMergeProperties[float64])
	t.Run("kv64", runStridedMergeProperties[element.KV64])
}

// TestMergeKV64TiesKeepRunOrder pins the tie rule directly: records
// with equal keys leave the merge lower-indexed run first, on both the
// two-run kernel and the loser tree, whichever way the runs are stored.
func TestMergeKV64TiesKeepRunOrder(t *testing.T) {
	for p := 2; p <= 4; p++ {
		runs := make([]localsort.RunOf[element.KV64], p)
		for r := range runs {
			runs[r] = localsort.RunOf[element.KV64]{
				Keys: []element.KV64{{K: 7, V: uint64(10*r + 1)}, {K: 7, V: uint64(10*r + 2)}},
				Desc: r%2 == 1,
			}
			if runs[r].Desc {
				slices.Reverse(runs[r].Keys)
			}
		}
		dst := make([]element.KV64, 2*p)
		localsort.MergeRuns(dst, runs)
		for i, rec := range dst {
			if want := uint64(10*(i/2) + 1 + i%2); rec.V != want {
				t.Fatalf("p=%d: payload %d at %d, want %d (got %v)", p, rec.V, i, want, dst)
			}
		}
	}
}

// TestMergeRunsRoutedPanicsOnLengthMismatch pins the routed merge's
// one precondition: the runs hold exactly the plan's local keys.
func TestMergeRunsRoutedPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on runs shorter than the plan's local array")
		}
	}()
	plan := addr.NewRemapPlan(addr.Blocked(3, 1), addr.Cyclic(3, 1))
	runs := []localsort.Run{{Keys: []uint32{1, 2}}, {Keys: []uint32{0}}}
	localsort.MergeRunsRouted([][]uint32{make([]uint32, 2), make([]uint32, 2)}, plan, 0, runs, true)
}
