package bitseq

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"parbitonic/element"
)

// makeBitonic builds a bitonic sequence of length n with distinct values:
// it rises for `up` elements and falls for the rest, then is rotated by
// rot. Distinctness holds because values are a permutation of 0..n-1.
func makeBitonic(n, up, rot int, rng *rand.Rand) []uint32 {
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i)
	}
	if rng != nil {
		rng.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	// Build rise of length `up` then fall of length n-up by dealing the
	// sorted values: the largest value is the peak; the ascending run
	// takes `up` values ending at the peak, descending run the rest.
	seq := make([]uint32, 0, n)
	asc := vals[n-up : n]
	desc := vals[:n-up]
	seq = append(seq, asc...)
	for i := len(desc) - 1; i >= 0; i-- {
		seq = append(seq, desc[i])
	}
	return Rotate(seq, rot)
}

// The kernel tests run on every element type. A test builds its
// sequence from uint32 ranks and maps each rank to an element with mk,
// which is monotone in the rank, so the sequence keeps its shape.

// mk returns the element of rank v at position id. uint64 and KV64
// keys use the high word, so a kernel that compared only the low 32
// bits would see ties. Float keys straddle zero, and rank 2 is -0 at
// odd ids and +0 at even ones: two bit patterns that tie under float
// order. KV64 records take id as payload, so equal keys carry distinct
// payloads.
func mk[E element.Elem](v uint32, id int) E {
	var e E
	switch any(e).(type) {
	case uint32:
		return any(v).(E)
	case uint64:
		return any(uint64(v)<<32 | 1).(E)
	case float32:
		f := (float32(v) - 2) / 2
		if v == 2 && id%2 == 1 {
			f = float32(math.Copysign(0, -1))
		}
		return any(f).(E)
	case float64:
		f := (float64(v) - 2) / 4
		if v == 2 && id%2 == 1 {
			f = math.Copysign(0, -1)
		}
		return any(f).(E)
	default:
		return any(element.KV64{K: uint64(v)<<32 | 1, V: uint64(id)}).(E)
	}
}

// elems maps ranks to elements, each at its own position.
func elems[E element.Elem](vals []uint32) []E {
	out := make([]E, len(vals))
	for i, v := range vals {
		out[i] = mk[E](v, i)
	}
	return out
}

// halve maps rank v to v/2, a monotone map that turns a distinct
// bitonic sequence into a bitonic sequence with ties.
func halve(vals []uint32) []uint32 {
	out := make([]uint32, len(vals))
	for i, v := range vals {
		out[i] = v / 2
	}
	return out
}

// eachElem runs one generic test body per element type, as subtests
// named after the type.
func eachElem(t *testing.T, u32, u64, f32, f64, kv func(*testing.T)) {
	for i, f := range []func(*testing.T){u32, u64, f32, f64, kv} {
		t.Run(element.Types()[i].String(), f)
	}
}

// keyEq reports whether a and b have equal keys.
func keyEq[E element.Elem](a, b E) bool {
	return !element.Less(a, b) && !element.Less(b, a)
}

// bits is an element's exact identity: -0 and +0 differ, and a KV64
// payload counts.
type bits struct{ key, aux uint64 }

func bitsOf[E element.Elem](e E) bits {
	return bits{element.Bits(e), element.Aux(e)}
}

// sameElems reports whether a and b hold the same elements bit for
// bit, in any order.
func sameElems[E element.Elem](a, b []E) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[bits]int{}
	for i := range a {
		m[bitsOf(a[i])]++
		m[bitsOf(b[i])]--
	}
	for _, c := range m {
		if c != 0 {
			return false
		}
	}
	return true
}

// sortedCopy returns s sorted ascending by key.
func sortedCopy[E element.Elem](s []E) []E {
	out := append([]E(nil), s...)
	sort.SliceStable(out, func(i, j int) bool { return element.Less(out[i], out[j]) })
	return out
}

// checkSortedAs fails unless got holds want's elements with keys in
// sorted order (descending when !asc).
func checkSortedAs[E element.Elem](t *testing.T, label string, got, want []E, asc bool) {
	t.Helper()
	ref := sortedCopy(want)
	n := len(ref)
	for i := range ref {
		j := i
		if !asc {
			j = n - 1 - i
		}
		if !keyEq(got[j], ref[i]) {
			t.Fatalf("%s: key mismatch at %d: got %v want %v", label, j, got[j], ref[i])
		}
	}
	if !sameElems(got, want) {
		t.Fatalf("%s: elements changed: %v from %v", label, got, want)
	}
}

func argmin[E element.Elem](s []E) int {
	best := 0
	for i, v := range s {
		if element.Less(v, s[best]) {
			best = i
		}
	}
	return best
}

func argmax[E element.Elem](s []E) int {
	best := 0
	for i, v := range s {
		if element.Less(s[best], v) {
			best = i
		}
	}
	return best
}

func TestIsSorted(t *testing.T) {
	cases := []struct {
		s         []uint32
		asc, desc bool
	}{
		{[]uint32{}, true, true},
		{[]uint32{5}, true, true},
		{[]uint32{1, 2, 3}, true, false},
		{[]uint32{3, 2, 1}, false, true},
		{[]uint32{2, 2, 2}, true, true},
		{[]uint32{1, 3, 2}, false, false},
	}
	for _, c := range cases {
		if got := IsSortedAsc(c.s); got != c.asc {
			t.Errorf("IsSortedAsc(%v) = %v, want %v", c.s, got, c.asc)
		}
		if got := IsSortedDesc(c.s); got != c.desc {
			t.Errorf("IsSortedDesc(%v) = %v, want %v", c.s, got, c.desc)
		}
		if got := IsSorted(c.s, true); got != c.asc {
			t.Errorf("IsSorted(%v, asc) = %v, want %v", c.s, got, c.asc)
		}
		if got := IsSorted(c.s, false); got != c.desc {
			t.Errorf("IsSorted(%v, desc) = %v, want %v", c.s, got, c.desc)
		}
	}
}

func TestIsBitonicExamples(t *testing.T) {
	// The two examples from §2.1.1 of the paper.
	a := []uint32{2, 3, 4, 5, 6, 7, 8, 8, 7, 5, 3, 2, 1}
	b := []uint32{6, 7, 8, 8, 7, 5, 3, 2, 1, 2, 3, 4, 5}
	if !IsBitonic(a) {
		t.Errorf("paper example 1 should be bitonic: %v", a)
	}
	if !IsBitonic(b) {
		t.Errorf("paper example 2 (cyclic shift) should be bitonic: %v", b)
	}
	notBitonic := []uint32{1, 3, 1, 3, 1}
	if IsBitonic(notBitonic) {
		t.Errorf("%v should not be bitonic", notBitonic)
	}
}

func TestIsBitonicAllRotations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 24; n++ {
		for up := 1; up <= n; up++ {
			s := makeBitonic(n, up, 0, rng)
			for rot := 0; rot < n; rot++ {
				if r := Rotate(s, rot); !IsBitonic(r) {
					t.Fatalf("n=%d up=%d rot=%d: %v should be bitonic", n, up, rot, r)
				}
			}
		}
	}
}

func TestIsBitonicRejectsRandomNonBitonic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rejected := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		s := make([]uint32, 32)
		for j := range s {
			s[j] = rng.Uint32() % 1000
		}
		if !IsBitonic(s) {
			rejected++
		}
	}
	if rejected < trials*9/10 {
		t.Errorf("random length-32 sequences should almost never be bitonic; rejected only %d/%d", rejected, trials)
	}
}

// checkPairs fails unless every column (i, i+n/2) of got holds the
// same two elements as that column of orig, bit for bit: a split moves
// elements and never rewrites them.
func checkPairs[E element.Elem](t *testing.T, got, orig []E) {
	t.Helper()
	h := len(orig) / 2
	for i := 0; i < h; i++ {
		if !sameElems([]E{got[i], got[i+h]}, []E{orig[i], orig[i+h]}) {
			t.Fatalf("column %d: got %v, %v from %v, %v", i, got[i], got[i+h], orig[i], orig[i+h])
		}
	}
}

// Odd trials halve the ranks, so equal keys meet across the split.
func TestSplitProperties(t *testing.T) {
	eachElem(t, testSplitProperties[uint32], testSplitProperties[uint64],
		testSplitProperties[float32], testSplitProperties[float64], testSplitProperties[element.KV64])
}

func testSplitProperties[E element.Elem](t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 2 << rng.Intn(6) // 2..64
		up := 1 + rng.Intn(n)
		rot := rng.Intn(n)
		vals := makeBitonic(n, up, rot, rng)
		if trial%2 == 1 {
			vals = halve(vals)
		}
		s := elems[E](vals)
		orig := append([]E(nil), s...)
		Split(s)
		lo, hi := s[:n/2], s[n/2:]
		if !IsBitonic(lo) {
			t.Fatalf("low half not bitonic: %v from %v", lo, orig)
		}
		if !IsBitonic(hi) {
			t.Fatalf("high half not bitonic: %v from %v", hi, orig)
		}
		if maxLo, minHi := lo[argmax(lo)], hi[argmin(hi)]; element.Less(minHi, maxLo) {
			t.Fatalf("split ordering violated: max(lo)=%v > min(hi)=%v (input %v)", maxLo, minHi, orig)
		}
		checkPairs(t, s, orig)
	}
}

func TestSplitDescMirrorsSplit(t *testing.T) {
	eachElem(t, testSplitDescMirrorsSplit[uint32], testSplitDescMirrorsSplit[uint64],
		testSplitDescMirrorsSplit[float32], testSplitDescMirrorsSplit[float64], testSplitDescMirrorsSplit[element.KV64])
}

func testSplitDescMirrorsSplit[E element.Elem](t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		n := 2 << rng.Intn(5)
		vals := makeBitonic(n, 1+rng.Intn(n), rng.Intn(n), rng)
		if trial%2 == 1 {
			vals = halve(vals)
		}
		s := elems[E](vals)
		a := append([]E(nil), s...)
		b := append([]E(nil), s...)
		Split(a)
		SplitDesc(b)
		for i := 0; i < n/2; i++ {
			if !keyEq(a[i], b[i+n/2]) || !keyEq(a[i+n/2], b[i]) {
				t.Fatalf("SplitDesc is not the mirror of Split: %v vs %v", a, b)
			}
		}
		checkPairs(t, a, s)
		checkPairs(t, b, s)
	}
}

func TestMergeSortsBitonic(t *testing.T) {
	eachElem(t, testMergeSortsBitonic[uint32], testMergeSortsBitonic[uint64],
		testMergeSortsBitonic[float32], testMergeSortsBitonic[float64], testMergeSortsBitonic[element.KV64])
}

func testMergeSortsBitonic[E element.Elem](t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 2 << rng.Intn(8)
		vals := makeBitonic(n, 1+rng.Intn(n), rng.Intn(n), rng)
		if trial%2 == 1 {
			vals = halve(vals)
		}
		s := elems[E](vals)

		asc := append([]E(nil), s...)
		Merge(asc, true)
		if !IsSortedAsc(asc) {
			t.Fatalf("Merge asc failed: %v", asc)
		}
		checkSortedAs(t, "Merge asc", asc, s, true)

		desc := append([]E(nil), s...)
		Merge(desc, false)
		if !IsSortedDesc(desc) {
			t.Fatalf("Merge desc failed: %v", desc)
		}
		checkSortedAs(t, "Merge desc", desc, s, false)
	}
}

func TestMergePanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Merge should panic on non-power-of-two length")
		}
	}()
	Merge(make([]uint32, 3), true)
}

func TestRotate(t *testing.T) {
	s := []uint32{0, 1, 2, 3, 4}
	if got := Rotate(s, 2); got[0] != 2 || got[4] != 1 {
		t.Errorf("Rotate(+2) = %v", got)
	}
	if got := Rotate(s, -1); got[0] != 4 {
		t.Errorf("Rotate(-1) = %v", got)
	}
	if got := Rotate(s, 5); got[0] != 0 {
		t.Errorf("Rotate(n) should be identity, got %v", got)
	}
	if got := Rotate[uint32](nil, 3); len(got) != 0 {
		t.Errorf("Rotate(nil) = %v", got)
	}
}

// TestMinIndexExhaustive checks Algorithm 2 against a linear scan for
// every (length, peak position, rotation) combination of distinct-valued
// bitonic sequences up to length 40.
func TestMinIndexExhaustive(t *testing.T) {
	eachElem(t, testMinIndexExhaustive[uint32], testMinIndexExhaustive[uint64],
		testMinIndexExhaustive[float32], testMinIndexExhaustive[float64], testMinIndexExhaustive[element.KV64])
}

func testMinIndexExhaustive[E element.Elem](t *testing.T) {
	for n := 1; n <= 40; n++ {
		for up := 1; up <= n; up++ {
			base := makeBitonic(n, up, 0, nil)
			for rot := 0; rot < n; rot++ {
				s := elems[E](Rotate(base, rot))
				got := MinIndex(s)
				want := argmin(s)
				if !keyEq(s[got], s[want]) {
					t.Fatalf("n=%d up=%d rot=%d: MinIndex=%d (val %v), argmin=%d (val %v) in %v",
						n, up, rot, got, s[got], want, s[want], s)
				}
			}
		}
	}
}

func TestMinIndexRandomLarge(t *testing.T) {
	eachElem(t, testMinIndexRandomLarge[uint32], testMinIndexRandomLarge[uint64],
		testMinIndexRandomLarge[float32], testMinIndexRandomLarge[float64], testMinIndexRandomLarge[element.KV64])
}

func testMinIndexRandomLarge[E element.Elem](t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(1<<12)
		s := elems[E](makeBitonic(n, 1+rng.Intn(n), rng.Intn(n), rng))
		got := MinIndex(s)
		if !keyEq(s[got], s[argmin(s)]) {
			t.Fatalf("trial %d: wrong minimum", trial)
		}
	}
}

// randomBitonicDups builds a bitonic sequence of n ranks drawn from
// [0, card): low cardinality forces equal splitters.
func randomBitonicDups(rng *rand.Rand, n, card int) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = uint32(rng.Intn(card))
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	up := 1 + rng.Intn(n)
	seq := append(append([]uint32{}, s[n-up:]...), reversed(s[:n-up])...)
	return Rotate(seq, rng.Intn(n))
}

func TestMinIndexWithDuplicates(t *testing.T) {
	eachElem(t, testMinIndexWithDuplicates[uint32], testMinIndexWithDuplicates[uint64],
		testMinIndexWithDuplicates[float32], testMinIndexWithDuplicates[float64], testMinIndexWithDuplicates[element.KV64])
}

func testMinIndexWithDuplicates[E element.Elem](t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(256)
		// Low-cardinality values force duplicate splitters and exercise
		// the linear fallback.
		seq := elems[E](randomBitonicDups(rng, n, 4))
		if !IsBitonic(seq) {
			t.Fatalf("test generator produced non-bitonic input")
		}
		got := MinIndex(seq)
		if want := seq[argmin(seq)]; !keyEq(seq[got], want) {
			t.Fatalf("duplicates: MinIndex returned %d (val %v), want val %v", got, seq[got], want)
		}
		got = MaxIndex(seq)
		if want := seq[argmax(seq)]; !keyEq(seq[got], want) {
			t.Fatalf("duplicates: MaxIndex returned %d (val %v), want val %v", got, seq[got], want)
		}
	}
}

func reversed(s []uint32) []uint32 {
	out := make([]uint32, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}

func TestMaxIndex(t *testing.T) {
	eachElem(t, testMaxIndex[uint32], testMaxIndex[uint64],
		testMaxIndex[float32], testMaxIndex[float64], testMaxIndex[element.KV64])
}

func testMaxIndex[E element.Elem](t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(512)
		s := elems[E](makeBitonic(n, 1+rng.Intn(n), rng.Intn(n), rng))
		got := MaxIndex(s)
		if want := s[argmax(s)]; !keyEq(s[got], want) {
			t.Fatalf("MaxIndex wrong: got val %v want %v", s[got], want)
		}
	}
}

// TestMinIndexLogarithmic verifies the O(log n) claim of Lemma 8 by
// counting positions inspected on duplicate-free inputs.
func TestMinIndexLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1 << 8, 1 << 12, 1 << 16} {
		worst := 0
		for trial := 0; trial < 50; trial++ {
			s := makeBitonic(n, 1+rng.Intn(n), rng.Intn(n), rng)
			inspected := countMinIndexInspections(s)
			if inspected > worst {
				worst = inspected
			}
		}
		// Each iteration halves the arc and inspects O(1) positions;
		// the final linear scan touches <= 4. Allow a generous constant.
		limit := 8*log2ceil(n) + 16
		if worst > limit {
			t.Errorf("n=%d: MinIndex inspected %d positions, want <= %d", n, worst, limit)
		}
	}
}

func log2ceil(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

// countMinIndexInspections re-runs the MinIndex control flow, counting
// every sequence position it reads. It mirrors MinIndex exactly; the
// equality of results is asserted as a side check.
func countMinIndexInspections(s []uint32) int {
	n := len(s)
	count := 0
	read := func(i int) uint32 { count++; return s[i%n] }
	if n <= 2 {
		return n
	}
	a, b, c := 0, n/3, 2*n/3
	va, vb, vc := read(a), read(b), read(c)
	if va == vb || vb == vc || va == vc {
		return count + n
	}
	var lo, mid, hi int
	switch {
	case va < vb && va < vc:
		lo, mid, hi = c, a+n, b+n
	case vb < va && vb < vc:
		lo, mid, hi = a, b, c
	default:
		lo, mid, hi = b, c, a+n
	}
	for hi-lo > 3 {
		x := (lo + mid) / 2
		y := (mid + hi) / 2
		vx, vm, vy := read(x), read(mid), read(y)
		if vx == vm || vm == vy || (x != mid && y != mid && vx == vy) {
			return count + (hi - lo + 1)
		}
		switch {
		case vx < vm && vx < vy:
			mid, hi = x, mid
		case vm < vx && vm < vy:
			lo, hi = x, y
		default:
			lo, mid = mid, y
		}
	}
	return count + (hi - lo + 1)
}

func TestSortBitonic(t *testing.T) {
	eachElem(t, testSortBitonic[uint32], testSortBitonic[uint64],
		testSortBitonic[float32], testSortBitonic[float64], testSortBitonic[element.KV64])
}

func testSortBitonic[E element.Elem](t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(1024)
		s := elems[E](makeBitonic(n, 1+rng.Intn(n), rng.Intn(n), rng))
		orig := append([]E(nil), s...)
		dst := make([]E, n)
		SortBitonic(dst, s, true)
		checkSortedAs(t, "SortBitonic asc", dst, s, true)
		SortBitonic(dst, s, false)
		checkSortedAs(t, "SortBitonic desc", dst, s, false)
		for i := range s {
			if bitsOf(s[i]) != bitsOf(orig[i]) {
				t.Fatalf("SortBitonic changed its source at %d", i)
			}
		}
	}
}

func TestSortBitonicDuplicates(t *testing.T) {
	eachElem(t, testSortBitonicDuplicates[uint32], testSortBitonicDuplicates[uint64],
		testSortBitonicDuplicates[float32], testSortBitonicDuplicates[float64], testSortBitonicDuplicates[element.KV64])
}

func testSortBitonicDuplicates[E element.Elem](t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(256)
		seq := elems[E](randomBitonicDups(rng, n, 8))
		dst := make([]E, n)
		SortBitonic(dst, seq, true)
		if !IsSortedAsc(dst) {
			t.Fatalf("not sorted: %v", dst)
		}
		checkSortedAs(t, "SortBitonic asc", dst, seq, true)
		SortBitonic(dst, seq, false)
		if !IsSortedDesc(dst) {
			t.Fatalf("not sorted descending: %v", dst)
		}
		checkSortedAs(t, "SortBitonic desc", dst, seq, false)
	}
}

// Property: for any bitonic input, SortBitonic agrees with Merge.
func TestQuickSortBitonicMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 << (1 + r.Intn(9))
		s := makeBitonic(n, 1+r.Intn(n), r.Intn(n), rng)
		a := make([]uint32, n)
		SortBitonic(a, s, true)
		b := append([]uint32(nil), s...)
		Merge(b, true)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSortBitonicEmptyAndMismatch(t *testing.T) {
	SortBitonic[uint32](nil, nil, true) // must not panic
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	SortBitonic(make([]uint32, 2), make([]uint32, 3), true)
}
