package localsort_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"parbitonic/element"
	"parbitonic/internal/addr"
	"parbitonic/internal/localsort"
	"parbitonic/internal/schedule"
)

// The merge kernels' contract, checked for every element type: the
// merge equals a stable sort of the runs taken in run order, so equal
// keys come out in run order and, within a run, in the run's own
// order, whether a run is contiguous, strided or a segmented deal view.
// KV64 records carry a unique payload, so a tie broken the wrong way
// shows as a payload out of place.

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

// mergeOracle is the expected merge: the runs' elements in read
// order, concatenated in run order, stably sorted.
func mergeOracle[E element.Elem](runs []localsort.RunOf[E]) []E {
	var all []E
	for _, r := range runs {
		all = append(all, readRun(r)...)
	}
	slices.SortStableFunc(all, cmpElem[E])
	return all
}

// readRun returns r's elements in read order, by RunOf's definition:
// Seg elements (one if Seg is 0) from every Stride-th index while a
// whole segment remains.
func readRun[E element.Elem](r localsort.RunOf[E]) []E {
	stride, seg := max(r.Stride, 1), max(r.Seg, 1)
	if seg > stride {
		seg = stride
	}
	var seq []E
	for i := 0; i+seg <= len(r.Keys); i += stride {
		seq = append(seq, r.Keys[i:i+seg]...)
	}
	return seq
}

// randomRuns builds ascending runs of the given lengths over a key
// domain of the given size (1 makes every key equal, a few makes heavy
// duplicates).
func randomRuns[E element.Elem](rng *rand.Rand, lens []int, domain int, id *int) []localsort.RunOf[E] {
	runs := make([]localsort.RunOf[E], len(lens))
	for r := range runs {
		keys := make([]E, lens[r])
		for i := range keys {
			keys[i] = mkElem[E](rng.Intn(domain), domain, *id)
			*id++
		}
		slices.SortStableFunc(keys, cmpElem[E])
		runs[r] = localsort.RunOf[E]{Keys: keys}
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

func runMergeProperties[E element.Elem](t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	id := 0
	for p := 0; p <= 5; p++ {
		for _, domain := range []int{1, 3, 1 << 20} {
			for trial := 0; trial < 4<<uint(p); trial++ {
				label := fmt.Sprintf("p=%d domain=%d", p, domain)
				runs := randomRuns[E](rng, randomLens(rng, p), domain, &id)
				checkMerge(t, label, runs, mergeOracle(runs))
			}
		}
	}

	// Past one chunk of the cascade: 3-8 and 17 runs totalling about
	// three chunks at this element width, so ties straddle cuts at
	// domains 1 and 3. One run holds a few keys and, past domain 1,
	// another holds only the largest key, so both are empty inside
	// most chunks.
	chunk := localsort.MergeChunkBytes / int(element.TypeOf[E]().Width())
	for _, p := range []int{3, 4, 5, 6, 7, 8, 17} {
		for _, domain := range []int{1, 3, 1 << 20} {
			label := fmt.Sprintf("p=%d domain=%d chunked", p, domain)
			lens := make([]int, p)
			for r := range lens {
				lens[r] = rng.Intn(6*chunk/p + 1)
			}
			lens[rng.Intn(p)] = rng.Intn(8)
			runs := randomRuns[E](rng, lens, domain, &id)
			late := runs[rng.Intn(p)].Keys
			for i := range late {
				late[i] = mkElem[E](domain-1, domain, id)
				id++
			}
			checkMerge(t, label, runs, mergeOracle(runs))
		}
	}

	// FullSort's P=2 shape: two runs of equal length, also through
	// MergeTwo.
	for _, m := range []int{1, 2, 3, 64, 1000, 1024} {
		for _, domain := range []int{1, 3, 1 << 20} {
			label := fmt.Sprintf("m=%d domain=%d", m, domain)
			runs := randomRuns[E](rng, []int{m, m}, domain, &id)
			want := mergeOracle(runs)
			checkMerge(t, label, runs, want)
			dst := make([]E, 2*m)
			localsort.MergeTwo(dst, runs[0].Keys, runs[1].Keys)
			for i := range want {
				if !sameBits(dst[i], want[i]) {
					t.Fatalf("%s: MergeTwo[%d] = %v, want %v", label, i, dst[i], want[i])
				}
			}
		}
	}
}

// TestMergeKernelsMatchStableOracle runs the property over all five
// element types, 0-5 runs, empty runs, all-equal keys and heavy
// duplicates, 3-8 and 17 runs across several chunks of the cascade,
// and FullSort's two equal runs.
func TestMergeKernelsMatchStableOracle(t *testing.T) {
	t.Run("u32", runMergeProperties[uint32])
	t.Run("u64", runMergeProperties[uint64])
	t.Run("f32", runMergeProperties[float32])
	t.Run("f64", runMergeProperties[float64])
	t.Run("kv64", runMergeProperties[element.KV64])
}

// stridedRun returns every second element of an ascending array of 2m
// elements over domain from offset o, the shape of a round-0 message
// read in place.
func stridedRun[E element.Elem](rng *rand.Rand, m, o, domain int, id *int) localsort.RunOf[E] {
	arr := randomRuns[E](rng, []int{2 * m}, domain, id)[0].Keys
	return localsort.RunOf[E]{Keys: arr[o:], Stride: 2}
}

func runStridedMergeProperties[E element.Elem](t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	id := 0
	for _, m := range []int{1, 2, 3, 64, 1000, 1024} {
		for mask := uint(0); mask < 4; mask++ {
			// The bits pick each run's offset.
			o0, o1 := int(mask&1), int(mask>>1&1)
			for _, domain := range []int{1, 3, 1 << 20} {
				label := fmt.Sprintf("m=%d mask=%02b domain=%d", m, mask, domain)
				runs := []localsort.RunOf[E]{
					stridedRun[E](rng, m, o0, domain, &id),
					stridedRun[E](rng, m, o1, domain, &id),
				}
				checkMerge(t, label, runs, mergeOracle(runs))
				// One strided run beside a contiguous one, and alone.
				mixed := []localsort.RunOf[E]{runs[0], randomRuns[E](rng, []int{m}, domain, &id)[0]}
				checkMerge(t, label+" mixed", mixed, mergeOracle(mixed))
				checkMerge(t, label+" alone", runs[1:], mergeOracle(runs[1:]))
				three := append(slices.Clone(runs), mixed[1])
				checkMerge(t, label+" three", three, mergeOracle(three))
			}
		}
	}
}

// TestMergeStridedRuns checks the merge kernels on strided runs, the
// shape of FullSort's first merge, which reads each peer's message as
// every second key of the peer's sorted array: for all five element
// types, runs of both offsets, merged by the two-run kernel, beside a
// contiguous run, alone, and as three runs through the cascade.
func TestMergeStridedRuns(t *testing.T) {
	t.Run("u32", runStridedMergeProperties[uint32])
	t.Run("u64", runStridedMergeProperties[uint64])
	t.Run("f32", runStridedMergeProperties[float32])
	t.Run("f64", runStridedMergeProperties[float64])
	t.Run("kv64", runStridedMergeProperties[element.KV64])
}

// fullSortShaped reports whether sched is an inside remap, then
// crossings, then the last remap: the schedules FullSort runs.
func fullSortShaped(sched []schedule.Remap) bool {
	for i, r := range sched {
		want := schedule.Crossing
		switch {
		case i == 0:
			want = schedule.Inside
		case i == len(sched)-1:
			want = schedule.Last
		}
		if r.Kind != want {
			return false
		}
	}
	return len(sched) > 1
}

// dealShapes returns one remap plan for every deal shape (s, c) of the
// FullSort head schedules at lgN 8-20 and lgP 1-4 with shares of at
// least minLocal keys, each at the smallest lgN where it occurs.
func dealShapes(t *testing.T, minLocal int) []*addr.RemapPlan {
	seen := map[[2]int]bool{}
	var plans []*addr.RemapPlan
	for lgN := 8; lgN <= 20; lgN++ {
		for lgP := 1; lgP <= 4; lgP++ {
			sched := schedule.New(lgN, lgP, schedule.Head)
			if !fullSortShaped(sched) {
				continue
			}
			for _, r := range sched {
				s, c, ok := r.Plan.Deal()
				if !ok {
					t.Fatalf("lgN=%d lgP=%d: a remap of a FullSort schedule is not a deal", lgN, lgP)
				}
				if r.Plan.Old.LocalN() >= minLocal && !seen[[2]int{s, c}] {
					seen[[2]int{s, c}] = true
					plans = append(plans, r.Plan)
				}
			}
		}
	}
	return plans
}

// sortedShare returns n ascending elements with about four copies of
// each key, the keys of every share drawn from one range so that
// shares tie with each other too.
func sortedShare[E element.Elem](rng *rand.Rand, n int, id *int) []E {
	arr := make([]E, n)
	domain := max(n/4, 2)
	k := 0
	for i := range arr {
		if rng.Intn(4) == 0 && k < domain-1 {
			k++
		}
		arr[i] = mkElem[E](k, domain, *id)
		*id++
	}
	return arr
}

func runDealViewProperties[E element.Elem](t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	id := 0
	segmented := false
	plans := dealShapes(t, 0)
	smallest := map[[2]int]int{}
	for _, plan := range plans {
		s, c, _ := plan.Deal()
		smallest[[2]int{s, c}] = plan.Old.LocalN()
	}
	// Every shape that merges four runs or more again at a share past
	// one chunk of the cascade, unless its smallest share is, so its
	// cuts land inside segments.
	chunk := localsort.MergeChunkBytes / int(element.TypeOf[E]().Width())
	for _, plan := range dealShapes(t, chunk+1) {
		if s, c, _ := plan.Deal(); c >= 2 && smallest[[2]int{s, c}] <= chunk {
			plans = append(plans, plan)
		}
	}
	for _, plan := range plans {
		s, c, _ := plan.Deal()
		n := plan.Old.LocalN()
		group := plan.Dests(0)
		senders := plan.AppendSenders(nil, group[0])
		slices.Sort(senders)
		shares := map[int][]E{}
		for _, src := range senders {
			shares[src] = sortedShare[E](rng, n, &id)
		}
		// flip picks the senders whose regions are descending: the odd
		// ones, then the even ones.
		for _, flip := range []int{1, 0} {
			// The packed reference: rank i at local address i, or n-1-i
			// on a descending sender, packed by the walk.
			msgs := map[int][][]E{}
			for _, src := range senders {
				out := make([][]E, plan.Old.P())
				for _, q := range plan.Dests(src) {
					out[q] = make([]E, plan.MsgLen)
				}
				w := plan.PackWalk(src, src%2 == flip)
				for _, v := range shares[src] {
					out[w.A][w.B] = v
					w = w.Next()
				}
				msgs[src] = out
			}
			for _, g := range []int{0, len(group) - 1} {
				recv := group[g]
				label := fmt.Sprintf("s=%d c=%d n=%d flip=%d member=%d", s, c, n, flip, plan.Member(recv))
				var runs, packed []localsort.RunOf[E]
				for _, src := range senders {
					desc := src%2 == flip
					run := localsort.DealtRun(shares[src], s, c, plan.Member(recv), desc)
					segmented = segmented || run.Seg > 1
					msg := slices.Clone(msgs[src][recv])
					if desc {
						slices.Reverse(msg)
					}
					// Each view reads its packed message's ranks in order.
					checkMerge(t, label, []localsort.RunOf[E]{run}, msg)
					runs = append(runs, run)
					packed = append(packed, localsort.RunOf[E]{Keys: msg})
				}
				checkMerge(t, label, runs, mergeOracle(packed))
			}
		}
	}
	if !segmented {
		t.Fatal("no deal view had segments")
	}
}

// TestMergeDealViews is the oracle for FullSort's in-place reads: for
// every deal shape (s, c) of the FullSort schedules up to lgN=20 and
// P=16, senders of both region directions and the first and last
// member of a group, MergeRuns over the DealtRun views of the senders'
// ascending shares equals a stable sort, by key and then run, of the
// messages the pack walk builds from the same shares. Keys repeat
// within and across shares, on all five element types. Each shape
// runs at its smallest share, and again past one chunk of the
// cascade when it merges four runs or more.
func TestMergeDealViews(t *testing.T) {
	t.Run("u32", runDealViewProperties[uint32])
	t.Run("u64", runDealViewProperties[uint64])
	t.Run("f32", runDealViewProperties[float32])
	t.Run("f64", runDealViewProperties[float64])
	t.Run("kv64", runDealViewProperties[element.KV64])
}

// TestMergeKV64TiesKeepRunOrder pins the tie rule directly: records
// with equal keys leave the merge lower-indexed run first, on both the
// two-run kernel and the cascade.
func TestMergeKV64TiesKeepRunOrder(t *testing.T) {
	for p := 2; p <= 4; p++ {
		runs := make([]localsort.RunOf[element.KV64], p)
		for r := range runs {
			runs[r] = localsort.RunOf[element.KV64]{
				Keys: []element.KV64{{K: 7, V: uint64(10*r + 1)}, {K: 7, V: uint64(10*r + 2)}},
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
