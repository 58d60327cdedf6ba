// Package bitseq implements primitives on bitonic sequences: predicates,
// bitonic split and merge (Definitions 1-2 of the paper), linear-time
// sorting of a bitonic sequence, and the paper's Algorithm 2 which finds
// the minimum of a duplicate-free bitonic sequence in O(log n) time
// (Lemma 8).
//
// A sequence a_0..a_{n-1} is bitonic if some cyclic shift of it first
// monotonically increases and then monotonically decreases. Viewed on a
// circle (Figure 4.6 of the paper) a bitonic sequence has a single
// "rising" arc and a single "falling" arc.
//
// Every routine is generic over the element layer. The hot kernels
// (Split, SortBitonic and the Algorithm 2 search) dispatch on the
// element kind once per call and run one body per kernel over the key
// view of element.KeyOf: storage S, keys compared natively as K. Scalar
// keys, KV64 records and floats (over integer storage) all run that
// body, and the uint32 instantiation compiles to exactly the loops the
// paper's analysis counts.
package bitseq

import "parbitonic/element"

// IsSortedAsc reports whether s is monotonically non-decreasing.
func IsSortedAsc[E element.Elem](s []E) bool {
	for i := 1; i < len(s); i++ {
		if element.Less(s[i], s[i-1]) {
			return false
		}
	}
	return true
}

// IsSortedDesc reports whether s is monotonically non-increasing.
func IsSortedDesc[E element.Elem](s []E) bool {
	for i := 1; i < len(s); i++ {
		if element.Less(s[i-1], s[i]) {
			return false
		}
	}
	return true
}

// IsSorted reports whether s is monotonic in the direction given by asc.
func IsSorted[E element.Elem](s []E, asc bool) bool {
	if asc {
		return IsSortedAsc(s)
	}
	return IsSortedDesc(s)
}

// IsBitonic reports whether s is a bitonic sequence per Definition 1:
// some cyclic shift of s first monotonically increases then monotonically
// decreases. Equivalently, walking the circular sequence of strict
// comparisons between neighbours, the direction changes at most twice.
// Sequences with duplicates are handled: runs of equal elements carry no
// direction of their own (for records, equal means equal keys).
func IsBitonic[E element.Elem](s []E) bool {
	n := len(s)
	if n <= 2 {
		return true
	}
	changes := 0
	prevSign := 0 // last non-zero circular difference sign seen
	for i := 0; i < n; i++ {
		a, b := s[i], s[(i+1)%n]
		var sign int
		switch {
		case element.Less(a, b):
			sign = 1
		case element.Less(b, a):
			sign = -1
		default:
			continue
		}
		if prevSign != 0 && sign != prevSign {
			changes++
		}
		prevSign = sign
	}
	// A circular walk over an increase-then-decrease shape crosses the
	// max once and the min once: at most 2 direction changes.
	return changes <= 2
}

// Split performs an in-place bitonic split (Definition 2) on s, whose
// length must be even: afterwards s[:n/2] holds min(a_i, a_{i+n/2}) and
// s[n/2:] holds max(a_i, a_{i+n/2}). If s was bitonic, both halves are
// bitonic and every element of the first half is <= every element of the
// second half.
func Split[E element.Elem](s []E) {
	if len(s)%2 != 0 {
		panic("bitseq: Split on odd-length sequence")
	}
	split(s, false)
}

// SplitDesc is Split with the comparison reversed: the first half
// receives the maxima and the second half the minima.
func SplitDesc[E element.Elem](s []E) {
	if len(s)%2 != 0 {
		panic("bitseq: SplitDesc on odd-length sequence")
	}
	split(s, true)
}

func split[E element.Elem](s []E, desc bool) {
	switch any(*new(E)).(type) {
	case uint32:
		splitOf[E, uint32](s, desc)
	case uint64, element.KV64:
		splitOf[E, uint64](s, desc)
	case float32:
		splitOf[uint32, float32](element.Cast[uint32](s), desc)
	case float64:
		splitOf[uint64, float64](element.Cast[uint64](s), desc)
	}
}

// splitOf compare-exchanges every pair (i, i+n/2). A pair swaps only
// when its keys are strictly out of order, and the swap moves whole
// elements, never rewriting one: floats run over integer storage, so
// -0 and +0 keep their bit patterns, and KV64 payloads ride along. On
// integer storage the swap compiles to conditional moves, so the sweep
// has no data-dependent branch for the predictor to miss.
func splitOf[S element.Elem, K element.Ord](s []S, desc bool) {
	h := len(s) / 2
	a, b := s[:h], s[h:h+h]
	if desc {
		for i := range a {
			pa, pb := &a[i], &b[i]
			x, y := *pa, *pb
			if element.KeyOf[K](pa) < element.KeyOf[K](pb) {
				x, y = y, x
			}
			*pa, *pb = x, y
		}
		return
	}
	for i := range a {
		pa, pb := &a[i], &b[i]
		x, y := *pa, *pb
		if element.KeyOf[K](pb) < element.KeyOf[K](pa) {
			x, y = y, x
		}
		*pa, *pb = x, y
	}
}

// mergeTileBytes bounds the segment size the cache-blocked Merge
// finishes depth-first: once a segment fits the budget (half of a
// typical 32 KiB L1d, leaving room for the write-back halves), all its
// remaining split levels run while it is cache-resident.
const mergeTileBytes = 16 << 10

// Merge sorts the bitonic sequence s in place in the direction given by
// asc using recursive bitonic splits (the bitonic merge of §2.1.2). The
// length of s must be a power of two. Cost is O(n log n) comparisons;
// SortBitonic is the O(n) alternative used by the optimized local
// computation.
//
// The split levels are walked depth-first below an L1-sized tile: the
// breadth-first network would stream the whole array once per level
// (log n full-cache-miss passes), while finishing each tile before
// moving on touches every cache line O(1) times beyond the first
// levels. The network itself is unchanged — splits at width w within a
// segment still precede the w/2 splits inside it, and disjoint
// segments are independent — so the output is element-for-element
// identical to the breadth-first order.
func Merge[E element.Elem](s []E, asc bool) {
	n := len(s)
	if n&(n-1) != 0 {
		panic("bitseq: Merge requires power-of-two length")
	}
	tile := mergeTileBytes / int(element.TypeOf[E]().Width())
	if tile < 2 {
		tile = 2
	}
	mergeRec(s, asc, tile)
}

func mergeRec[E element.Elem](s []E, asc bool, tile int) {
	n := len(s)
	if n <= 1 {
		return
	}
	if n <= tile {
		// The whole segment is cache-resident: the remaining levels run
		// breadth-first with no further call overhead.
		for width := n; width > 1; width /= 2 {
			for base := 0; base < n; base += width {
				if asc {
					Split(s[base : base+width])
				} else {
					SplitDesc(s[base : base+width])
				}
			}
		}
		return
	}
	if asc {
		Split(s)
	} else {
		SplitDesc(s)
	}
	mergeRec(s[:n/2], asc, tile)
	mergeRec(s[n/2:], asc, tile)
}

// Rotate returns a copy of s cyclically shifted left by k positions
// (element k becomes element 0). Rotating a bitonic sequence yields a
// bitonic sequence.
func Rotate[E element.Elem](s []E, k int) []E {
	n := len(s)
	out := make([]E, n)
	if n == 0 {
		return out
	}
	k = ((k % n) + n) % n
	copy(out, s[k:])
	copy(out[n-k:], s[:k])
	return out
}

// MinIndex returns the index of a minimum element of the bitonic
// sequence s. For duplicate-free input it runs Algorithm 2 of the paper
// in O(log n) time; whenever two splitters compare equal it falls back
// to a linear scan of the remaining arc, as §4.2 prescribes. The answer
// is always an index of a true minimum (minimum key, for records).
func MinIndex[E element.Elem](s []E) int {
	return minIndex(s, false)
}

// MaxIndex returns the index of a maximum element of the bitonic
// sequence s, with the same complexity contract as MinIndex. It runs
// Algorithm 2 under the reversed order.
func MaxIndex[E element.Elem](s []E) int {
	return minIndex(s, true)
}

// minIndex dispatches Algorithm 2 by element kind; rev runs it under
// the reversed order (turning the minimum search into a maximum
// search — order-isomorphic, so Lemma 8 applies unchanged).
func minIndex[E element.Elem](s []E, rev bool) int {
	switch any(*new(E)).(type) {
	case uint32:
		return minIndexOf[E, uint32](s, rev)
	case uint64, element.KV64:
		return minIndexOf[E, uint64](s, rev)
	case float32:
		return minIndexOf[uint32, float32](element.Cast[uint32](s), rev)
	default:
		return minIndexOf[uint64, float64](element.Cast[uint64](s), rev)
	}
}

func minIndexOf[S element.Elem, K element.Ord](s []S, rev bool) int {
	n := len(s)
	key := func(i int) K { return element.KeyOf[K](&s[i%n]) }
	switch n {
	case 0:
		panic("bitseq: MinIndex of empty sequence")
	case 1:
		return 0
	case 2:
		k0, k1 := key(0), key(1)
		if (k1 < k0) != rev && k1 != k0 {
			return 1
		}
		if rev && k1 > k0 {
			return 1
		}
		return 0
	}
	lt := func(a, b K) bool {
		if rev {
			return b < a
		}
		return a < b
	}

	// Step 1: three splitters breaking the circle into three arcs.
	a, b, c := 0, n/3, 2*n/3
	va, vb, vc := key(a), key(b), key(c)
	if va == vb || vb == vc || va == vc {
		return linearMinArc[S, K](s, 0, n, rev)
	}
	// lo..mid..hi is a clockwise arc known to contain the minimum, with
	// s[mid] < s[lo] and s[mid] < s[hi] maintained as the invariant
	// (strictness holds because ties divert to the linear scan).
	var lo, mid, hi int
	switch {
	case lt(va, vb) && lt(va, vc):
		lo, mid, hi = c, a+n, b+n // arc c -> a -> b (wrapping)
	case lt(vb, va) && lt(vb, vc):
		lo, mid, hi = a, b, c
	default:
		lo, mid, hi = b, c, a+n
	}

	for hi-lo > 3 {
		x := (lo + mid) / 2
		y := (mid + hi) / 2
		vx, vm, vy := key(x), key(mid), key(y)
		// Equal splitters void the uniqueness argument of Lemma 8:
		// switch to the linear search on the remaining arc.
		if vx == vm || vm == vy || (x != mid && y != mid && vx == vy) {
			return linearMinArc[S, K](s, lo, hi-lo+1, rev)
		}
		switch {
		case lt(vx, vm) && lt(vx, vy):
			mid, hi = x, mid
		case lt(vm, vx) && lt(vm, vy):
			lo, hi = x, y
		default:
			lo, mid = mid, y
		}
	}
	return linearMinArc[S, K](s, lo, hi-lo+1, rev)
}

// linearMinArc scans the circular arc of length count starting at
// start and returns the index (mod len(s)) of its minimum (maximum
// when rev). The two loops are kept separate so each compiles to the
// direct compare the paper's linear fallback costs out.
func linearMinArc[S element.Elem, K element.Ord](s []S, start, count int, rev bool) int {
	n := len(s)
	best := start % n
	if rev {
		for i := 1; i < count; i++ {
			idx := (start + i) % n
			if element.KeyOf[K](&s[idx]) > element.KeyOf[K](&s[best]) {
				best = idx
			}
		}
		return best
	}
	for i := 1; i < count; i++ {
		idx := (start + i) % n
		if element.KeyOf[K](&s[idx]) < element.KeyOf[K](&s[best]) {
			best = idx
		}
	}
	return best
}

// SortBitonic sorts the bitonic sequence src into dst (which must have
// the same length) in the direction given by asc, in O(n) time
// (Lemma 9): it locates the minimum with MinIndex and then merges the
// two monotonic circular runs that meet there.
//
// src and dst must not overlap. src is left unchanged.
func SortBitonic[E element.Elem](dst, src []E, asc bool) {
	if len(dst) != len(src) {
		panic("bitseq: SortBitonic length mismatch")
	}
	switch any(*new(E)).(type) {
	case uint32:
		sortBitonicOf[E, uint32](dst, src, asc)
	case uint64, element.KV64:
		sortBitonicOf[E, uint64](dst, src, asc)
	case float32:
		sortBitonicOf[uint32, float32](element.Cast[uint32](dst), element.Cast[uint32](src), asc)
	case float64:
		sortBitonicOf[uint64, float64](element.Cast[uint64](dst), element.Cast[uint64](src), asc)
	}
}

// sortBitonicOf merges the two circular runs meeting at the minimum.
// On equal keys the forward cursor's element goes first.
func sortBitonicOf[S element.Elem, K element.Ord](dst, src []S, asc bool) {
	n := len(src)
	if n == 0 {
		return
	}
	m := minIndexOf[S, K](src, false)
	// Walking clockwise from the minimum the circular sequence rises to
	// the maximum and then falls back. The unconsumed elements always
	// form a contiguous circular arc [fi..bj]; that arc is bitonic with
	// its maximum inside, so its minimum sits at one of the two ends.
	//
	// The cursors wrap at most once each, so the hot loop carries a
	// predictable wrap test instead of a modulo — the divide dominated
	// this kernel's run time. The ascending and descending emissions are
	// separate loops for the same reason: the direction is loop-
	// invariant. Comparisons and tie-breaks are exactly the modulo
	// form's, so the emitted order is element-for-element identical.
	fi := m // forward cursor (clockwise)
	bj := m - 1
	if bj < 0 {
		bj = n - 1 // backward cursor (counterclockwise)
	}
	if asc {
		for emitted := 0; emitted < n; emitted++ {
			pf, pb := &src[fi], &src[bj]
			if element.KeyOf[K](pf) <= element.KeyOf[K](pb) {
				dst[emitted] = *pf
				fi++
				if fi == n {
					fi = 0
				}
			} else {
				dst[emitted] = *pb
				bj--
				if bj < 0 {
					bj = n - 1
				}
			}
		}
		return
	}
	for emitted := n - 1; emitted >= 0; emitted-- {
		pf, pb := &src[fi], &src[bj]
		if element.KeyOf[K](pf) <= element.KeyOf[K](pb) {
			dst[emitted] = *pf
			fi++
			if fi == n {
				fi = 0
			}
		} else {
			dst[emitted] = *pb
			bj--
			if bj < 0 {
				bj = n - 1
			}
		}
	}
}
