package localsort_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"parbitonic/element"
	"parbitonic/internal/addr"
	"parbitonic/internal/intbits"
	"parbitonic/internal/localsort"
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
		seq := slices.Clone(r.Keys)
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
// over n local keys and up to 4 processors, a processor of it, and that
// processor's message buffers.
func randomRoute[E element.Elem](rng *rand.Rand, n int) (*addr.RemapPlan, int, [][]E) {
	lgP := rng.Intn(3)
	lgN := intbits.Log2(n) + lgP
	plan := addr.NewRemapPlan(randomLayout(rng, lgN, lgP), randomLayout(rng, lgN, lgP))
	proc := rng.Intn(1 << uint(lgP))
	out := make([][]E, 1<<uint(lgP)) // entries outside the group stay nil
	for _, q := range plan.Dests(proc) {
		out[q] = make([]E, plan.MsgLen)
	}
	return plan, proc, out
}

func runMergeProperties[E element.Elem](t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	id := 0
	for p := 0; p <= 5; p++ {
		for mask := uint(0); mask < 1<<uint(p); mask++ {
			for _, domain := range []int{1, 3, 1 << 20} {
				for trial := 0; trial < 4; trial++ {
					runs := randomRuns[E](rng, randomLens(rng, p), domain, mask, &id)
					want := mergeOracle(runs)
					dst := make([]E, len(want))
					localsort.MergeRuns(dst, runs)
					for i := range want {
						if !sameBits(dst[i], want[i]) {
							t.Fatalf("p=%d desc=%b domain=%d: MergeRuns[%d] = %v, want %v", p, mask, domain, i, dst[i], want[i])
						}
					}

					if p == 0 {
						continue // no local array is empty
					}
					runs = randomRuns[E](rng, pow2Lens(rng, p), domain, mask, &id)
					want = mergeOracle(runs)
					n := len(want)
					for _, asc := range []bool{true, false} {
						plan, proc, out := randomRoute[E](rng, n)
						localsort.MergeRunsRouted(out, plan, proc, runs, asc)
						for l := 0; l < n; l++ {
							rank := l
							if !asc {
								rank = n - 1 - l
							}
							if got := out[plan.Dest(proc, l)][plan.PackOffset(l)]; !sameBits(got, want[rank]) {
								t.Fatalf("p=%d desc=%b domain=%d asc=%v: routed local %d = %v, want %v", p, mask, domain, asc, l, got, want[rank])
							}
						}
					}
				}
			}
		}
	}
}

// TestMergeKernelsMatchStableOracle runs the property over all five
// element types, 0-5 runs, every Desc mix, empty runs, all-equal keys
// and heavy duplicates.
func TestMergeKernelsMatchStableOracle(t *testing.T) {
	t.Run("u32", runMergeProperties[uint32])
	t.Run("u64", runMergeProperties[uint64])
	t.Run("f32", runMergeProperties[float32])
	t.Run("f64", runMergeProperties[float64])
	t.Run("kv64", runMergeProperties[element.KV64])
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
