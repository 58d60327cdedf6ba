// Package localsort provides the fast local computation routines of
// Chapter 4: LSD radix sort (the paper's choice for the first lg n
// stages, §4.4; large sorts first partition by a top digit whose
// width follows n, and the model still charges the paper's 11-bit,
// 3-pass layout), linear two-way and p-way merges (§4.3's unpack fusion;
// a p-way merge cascades the two-way kernel over cache-sized chunks),
// and block/strided bitonic-merge sorting built on bitseq.SortBitonic
// (Theorems 2 and 3). All routines are O(n) or O(n · passes) and avoid
// comparisons beyond what the input format requires, which is exactly
// why the paper replaces the compare-exchange simulation with them.
//
// Every routine is generic over the element layer and dispatches once
// per call to one kernel body over the key view of element.KeyOf:
// storage S, key K. Radix passes read K as an unsigned digit source:
// integer keys directly, float keys through their order images (a
// bijective bit transform applied in place by element.ToImages, so the
// passes stay pure integer loops), KV64 records through K while whole
// 16-byte elements move. The merges compare K natively, floats over
// integer storage. The uint32 instantiation compiles to exactly the
// pre-generic loops.
package localsort

import (
	"math/bits"
	"sync/atomic"
	"unsafe"

	"parbitonic/element"
	"parbitonic/internal/bitseq"
	"parbitonic/internal/workpool"
)

// poolOverride lets tests route the parallel kernels through a pool of
// their own sizing; when nil the kernels use the process-wide shared
// pool (helpers = GOMAXPROCS-1, so on a single-core machine every
// kernel below runs its plain sequential path).
var poolOverride atomic.Pointer[workpool.Pool]

// SetPool overrides the worker pool the parallel kernels
// (SortBitonicBlocks, SortBitonicStridedBatch, the large-n radix)
// submit tiles to; nil restores the process-wide shared pool. It is a
// test hook — forcing a multi-lane pool exercises the concurrent tile
// paths on machines whose shared pool has no helpers — and must not be
// called while kernels are running.
func SetPool(p *workpool.Pool) {
	if p == nil {
		poolOverride.Store(nil)
		return
	}
	poolOverride.Store(p)
}

func kernelPool() *workpool.Pool {
	if p := poolOverride.Load(); p != nil {
		return p
	}
	return workpool.Shared()
}

// Digit widths of the radix layout. Small inputs use 8-bit LSD digits:
// the count tables live on the stack and the pass count per 32 bits is
// even, so the last permute lands back in the caller's array with no
// copy-back. Large inputs of every type, KV64 records included, take
// the hybrid layout: one MSD partition whose width follows n
// (hybridTop), so each region averages about 2^11 keys, each finished
// by an LSD radix of 12-bit digits whose working set is cache-resident
// (see radixUintHybrid).
const (
	radixSmallBits = 8
	radixSmallSize = 1 << radixSmallBits

	// The hybrid's layout (hybridTop): regions of about
	// 2^hybridRegionBits keys, at most 2^hybridTopMax of them, finished
	// with hybridDigitBits-wide digits in at most hybridMaxLowPasses
	// passes (ceil((64-5)/12), uint64 keys at radixLargeMin).
	hybridRegionBits   = 11
	hybridTopMax       = 11
	hybridDigitBits    = 12
	hybridDigitSize    = 1 << hybridDigitBits
	hybridMaxLowPasses = 5

	// radixLargeMin is the element count from which the hybrid pays for
	// its table zeroing and prefix sums.
	radixLargeMin = 1 << 16
)

// RadixPasses is the number of counting passes the §3.4/§4.4 cost
// model charges per 32 bits of key — the paper's 11-bit/3-pass layout.
// The implementation adapts its real digit width to n (see RadixSort)
// but the model constant is part of the calibrated cost semantics, so
// it stays fixed; internal/tune owns translating measured wall time
// into per-model-pass costs.
const RadixPasses = 3

// RadixPassesOf returns the number of model counting passes charged
// for element type E: RadixPasses per 32 bits of key width (3 for
// uint32/float32, 6 for uint64/float64/KV64).
func RadixPassesOf[E element.Elem]() int {
	return RadixPasses * element.KeyBits[E]() / 32
}

// The parallel kernels' tile states (their arguments, no closure) and
// the chunked merge's working sets, stashed per element type so
// dispatching tiles and merging allocate nothing.
var hybridStash, blockStash, stridedStash, mergeStash [5]workpool.Stash

// getTiles draws a *T from the stash slot of element type E.
func getTiles[T any, E element.Elem](s *[5]workpool.Stash) *T {
	if t, ok := s[element.TypeOf[E]()].Get().(*T); ok {
		return t
	}
	return new(T)
}

// RadixSort sorts keys in place, ascending, with least-significant-
// digit radix sort. Floats sort via their order image, so NaNs order
// after +Inf and -0 before +0; KV64 records sort by K, stably (every
// pass layout is a stable LSD permutation, so records with equal keys
// keep their input order). Allocates a transient n-element scratch;
// hot paths pass their own via RadixSortTo.
func RadixSort[E element.Elem](keys []E) {
	RadixSortTo(keys, nil, false)
}

// RadixSortTo is RadixSort with a caller-owned ping-pong buffer, which
// a short scratch replaces unless toScratch, landing the result in
// scratch[:len(keys)] when toScratch, else in keys (the other array is
// left undefined). From radixLargeMin elements on, every type takes
// the hybrid: it partitions into keys out of a mirror of them that its
// histogram read streams into scratch, and copies each finished region
// into scratch when toScratch. The flat LSD below it copies once when
// its pass count lands on the other side. Native FullSort's round 0 is
// this sort, whose sorted array its peers then read in place.
func RadixSortTo[E element.Elem](keys, scratch []E, toScratch bool) {
	if len(scratch) < len(keys) {
		if toScratch {
			panic("localsort: radix sort scratch shorter than keys")
		}
		scratch = make([]E, len(keys))
	}
	scratch = scratch[:len(keys)]
	dst := keys
	if toScratch {
		dst = scratch
	}
	if len(keys) < 2 {
		copy(dst, keys)
		return
	}
	element.ToImages(keys)
	switch any(*new(E)).(type) {
	case uint32, float32:
		radixUint[uint32, uint32](element.Cast[uint32](keys), element.Cast[uint32](scratch), toScratch)
	case uint64, float64:
		radixUint[uint64, uint64](element.Cast[uint64](keys), element.Cast[uint64](scratch), toScratch)
	case element.KV64:
		radixUint[E, uint64](keys, scratch, toScratch)
	}
	element.FromImages(dst)
}

// radixUint sorts keys by their K digits using scratch as the
// ping-pong buffer, landing in scratch when toScratch: K is the
// key-only storage itself, or a KV64 record's key. Inputs below
// radixLargeMin run a flat LSD with 8-bit digits and stack tables,
// larger ones the cache-blocked MSD+LSD hybrid. Both layouts are
// stable, so the choice is invisible in the output.
func radixUint[S element.Elem, K element.Uint](keys, scratch []S, toScratch bool) {
	if len(keys) < radixLargeMin {
		var count [(64 / radixSmallBits) * radixSmallSize]uint32
		radixUintPasses[S, K](keys, scratch, toScratch, element.KeyBits[S]()/radixSmallBits, radixSmallBits, count[:])
		return
	}
	radixUintHybrid[S, K](keys, scratch, toScratch)
}

// hybridBounceMax bounds a lane's bounce buffer, in elements. A larger
// (oversize) region bounces through its span of scratch instead.
const hybridBounceMax = 1 << 16

// hybridTop is the hybrid's partition width for n keys of keyBits
// bits: regions of about 2^hybridRegionBits keys, up to hybridTopMax
// bits, and for 32-bit keys at least the 8 that leave two 12-bit
// digits. Uniform 31-bit keys fill half the regions, so a region holds
// 2^11–2^12 keys at most sizes: small enough for one lane's cache with
// its tables, large enough that clearing and summing them is cheap.
func hybridTop(n, keyBits int) int {
	top := min(bits.Len(uint(n))-1-hybridRegionBits, hybridTopMax)
	if keyBits == 32 {
		top = max(top, 32-2*hybridDigitBits)
	}
	return top
}

// radixUintHybrid sorts large arrays with one MSD partition pass
// followed by cache-resident LSD finishing. The top hybridTop bits
// scatter every element into its final region (a few thousand on
// uniform inputs), and each region is then finished independently by
// an LSD radix over the remaining low bits whose working set (region,
// bounce buffer, digit tables) stays in cache. DRAM sees three
// sequential sweeps (histogram, partition read, partition write) plus
// one read+write of cache-warm regions, versus the 2·passes+3
// full-array sweeps of a flat layout whose every permute round-trips
// memory. The partition always writes keys, warm from the caller, out
// of a mirror of them that the histogram read streams into scratch;
// each region then finishes in place and, when toScratch, is copied
// from the cache into its span of scratch. A partition straight into
// scratch, cold when a sort starts, ran 2–4 % slower at P=4 (native
// FullSort of 2^20 u32 keys). Region scatter is stable and the
// per-region LSD is stable, so the whole is a stable sort. 64-bit keys
// partition under their highest set bit (hybridPartition): keys below
// 2^32, the workloads' 64-bit keys, would otherwise all land in one
// oversize region that sorts through DRAM.
func radixUintHybrid[S element.Elem, K element.Uint](keys, scratch []S, toScratch bool) {
	top := hybridTop(len(keys), element.KeyBits[S]())
	h := getTiles[hybridTiles[S, K], S](&hybridStash)
	count, starts := h.count[:1<<top], h.starts[:1<<top]
	lowBits, big := hybridPartition[S, K](keys, scratch, count, starts, top)
	// Regions are disjoint in both arrays and the partition tables are
	// now read-only, so they finish in parallel on whatever helper lanes
	// are idle: each lane claims a 32nd of the regions at a time (so
	// lanes share them when keys fill only the lower half) and finishes
	// them in a working set of its own.
	h.keys, h.scratch, h.lowBits, h.toScratch = keys, scratch, lowBits, toScratch
	h.regions, h.grain = 1<<top, max(1<<top>>5, 1)
	wp := kernelPool()
	lanes := wp.Size()
	for len(h.work) < lanes {
		h.work = append(h.work, hybridWork[S]{})
	}
	digits := max((lowBits+hybridDigitBits-1)/hybridDigitBits, 2) << hybridDigitBits
	for i := range h.work[:lanes] {
		h.work[i].fit(digits, int(min(big, hybridBounceMax)))
	}
	h.next.Store(0)
	wp.ParallelTiles(lanes, 1, h)
	h.keys, h.scratch = nil, nil
	hybridStash[element.TypeOf[S]()].Put(h)
}

// hybridPartition is the hybrid's MSD pass: it mirrors keys into
// scratch as it counts the regions (the top bits of the key width),
// then scatters the mirror into keys by region, leaving each region's
// start in starts and end in count. It returns the low bits left and
// the largest region. For 64-bit keys the width is the bit length of
// the keys' OR, at least top, recounted from the mirror if it narrows.
func hybridPartition[S element.Elem, K element.Uint](keys, scratch []S, count, starts []uint32, top int) (lowBits int, big uint32) {
	keyBits := element.KeyBits[S]()
	shift := uint(keyBits - top)
	clear(count)
	if keyBits == 32 {
		for i := range keys {
			e := &keys[i]
			k := element.KeyOf[K](e)
			scratch[i] = *e
			count[int(k>>shift)]++
		}
	} else {
		var or K
		for i := range keys {
			e := &keys[i]
			k := element.KeyOf[K](e)
			or |= k
			scratch[i] = *e
			count[int(k>>shift)]++
		}
		if w := max(bits.Len64(uint64(or)), top); w < keyBits {
			shift = uint(w - top)
			clear(count)
			for i := range scratch {
				count[int(element.KeyOf[K](&scratch[i])>>shift)]++
			}
		}
	}
	sum := uint32(0)
	for r, c := range count {
		count[r], starts[r] = sum, sum
		sum += c
		big = max(big, c)
	}
	for i := range scratch {
		e := &scratch[i]
		r := int(element.KeyOf[K](e) >> shift)
		keys[count[r]] = *e
		count[r]++
	}
	return int(shift), big
}

// hybridTiles is a hybrid sort's state: its partition tables, the
// arrays and parameters its lanes share, and each lane's working set.
// It is stashed with its tables, so steady-state sorts allocate
// nothing.
type hybridTiles[S element.Elem, K element.Uint] struct {
	count, starts  [1 << hybridTopMax]uint32 // each region's end and start in keys
	keys, scratch  []S                       // the partitioned array, the other one
	lowBits        int
	regions, grain int             // the region count, the regions a lane claims at a time
	toScratch      bool            // land the regions in scratch
	next           atomic.Int64    // the first region no lane has claimed
	work           []hybridWork[S] // one per lane
}

// hybridWork is one lane's working set: its regions' digit tables and
// the buffer they bounce through.
type hybridWork[S element.Elem] struct {
	digits []uint32
	bounce []S
}

// fit grows w to digits table entries and bounce elements: the largest
// region of the sort, so no lane keeps a power of two beyond it.
func (w *hybridWork[S]) fit(digits, bounce int) {
	if len(w.digits) < digits {
		w.digits = make([]uint32, digits)
	}
	if len(w.bounce) < bounce {
		w.bounce = make([]S, bounce)
	}
}

// Tile runs the lane numbered lane: it claims regions grain at a time
// until none are left and finishes each, bouncing it through the
// lane's buffer, or through its span of scratch when it is too large
// for that.
func (h *hybridTiles[S, K]) Tile(lane, _ int) {
	w := &h.work[lane]
	for {
		rlo := int(h.next.Add(int64(h.grain))) - h.grain
		if rlo >= h.regions {
			return
		}
		for r := rlo; r < rlo+h.grain; r++ {
			lo, hi := int(h.starts[r]), int(h.count[r])
			seg, land := h.keys[lo:hi], h.keys[lo:hi]
			if h.toScratch {
				land = h.scratch[lo:hi]
			}
			if hi-lo < 2 {
				copy(land, seg)
				continue
			}
			buf := h.scratch[lo:hi]
			if hi-lo <= hybridBounceMax {
				buf = w.bounce[:hi-lo]
			}
			if res := lsdLow[S, K](seg, buf, h.lowBits, w.digits); &res[0] != &land[0] {
				copy(land, res)
			}
		}
	}
}

// lsdLow finishes one hybrid region: it sorts seg by the low lowBits
// bits of its keys with 12-bit digits (the last pass takes the
// remainder), bouncing between seg and buf, and returns whichever of
// the two holds the result. Identity passes (single occupied bucket)
// are skipped. A region of at most 24 low bits sorts by its low 24:
// the bits above lowBits are the region's own, or above every key's
// highest set bit, the same in every key. Every uint32 region takes
// that two-pass shape, with 21 to 24 low bits. It is unrolled: its
// fused histogram read is the hottest loop of the large-n sort, and
// constant digit shifts and masks keep its scatters free of
// shift-range checks. It, fill and scatterPass read keys by KeyOf's
// cast in place: an inlined KeyOf call here nil-checks its dictionary
// for every element.
func lsdLow[S element.Elem, K element.Uint](seg, buf []S, lowBits int, count []uint32) []S {
	n := uint32(len(seg))
	if lowBits <= 2*hybridDigitBits {
		c0, c1 := count[:hybridDigitSize], count[hybridDigitSize:2*hybridDigitSize]
		clear(c0)
		clear(c1)
		for i := range seg {
			k := *(*K)(unsafe.Pointer(&seg[i]))
			c0[int(k&0xfff)]++
			c1[int(k>>12&0xfff)]++
		}
		src, dst := seg, buf
		if c0[int(*(*K)(unsafe.Pointer(&src[0]))&0xfff)] != n {
			scatterPass[S, K](src, dst, 0, 0xfff, c0)
			src, dst = dst, src
		}
		if c1[int(*(*K)(unsafe.Pointer(&src[0]))>>12&0xfff)] != n {
			scatterPass[S, K](src, dst, 12, 0xfff, c1)
			src, dst = dst, src
		}
		return src
	}
	var lp lowPasses[S, K]
	lp.fill(seg, lowBits, count)
	src, dst := seg, buf
	for p := 0; p < lp.passes; p++ {
		if cnt := lp.cnt(p, count); cnt[int(*(*K)(unsafe.Pointer(&src[0]))>>lp.shifts[p]&lp.masks[p])] != n {
			scatterPass[S, K](src, dst, lp.shifts[p], lp.masks[p], cnt)
			src, dst = dst, src
		}
	}
	return src
}

// lowPasses is the general digit layout of a region's low bits: 12-bit
// digits, the last taking the remainder, their histograms side by side
// in one count table.
type lowPasses[S element.Elem, K element.Uint] struct {
	passes int
	shifts [hybridMaxLowPasses]uint
	masks  [hybridMaxLowPasses]K
	offs   [hybridMaxLowPasses]int
}

// fill lays out the passes over lowBits and fills the histograms of
// seg's keys into count in one read.
func (lp *lowPasses[S, K]) fill(seg []S, lowBits int, count []uint32) {
	off := 0
	for b := 0; b < lowBits; b += hybridDigitBits {
		w := min(hybridDigitBits, lowBits-b)
		lp.shifts[lp.passes] = uint(b)
		lp.masks[lp.passes] = K(1)<<w - 1
		lp.offs[lp.passes] = off
		off += 1 << w
		lp.passes++
	}
	clear(count[:off])
	for i := range seg {
		k := *(*K)(unsafe.Pointer(&seg[i]))
		for p := 0; p < lp.passes; p++ {
			count[lp.offs[p]+int(k>>lp.shifts[p]&lp.masks[p])]++
		}
	}
}

// cnt returns pass p's histogram in count.
func (lp *lowPasses[S, K]) cnt(p int, count []uint32) []uint32 {
	return count[lp.offs[p] : lp.offs[p]+int(lp.masks[p])+1]
}

// scatterPass turns the digit histogram cnt into running offsets and
// permutes src into dst by the key digit at shift/mask, whole elements
// moved — one stable counting-sort pass.
func scatterPass[S element.Elem, K element.Uint](src, dst []S, shift uint, mask K, cnt []uint32) {
	sum := uint32(0)
	for d := range cnt {
		c := cnt[d]
		cnt[d] = sum
		sum += c
	}
	for i := range src {
		e := &src[i]
		d := int(*(*K)(unsafe.Pointer(e)) >> shift & mask)
		dst[cnt[d]] = *e
		cnt[d]++
	}
}

// radixUintPasses is the flat LSD layout: passes stable counting
// passes of bits-wide digits of each element's K key, whole elements
// moved per pass, bouncing between keys and scratch. The histograms of
// every pass fill in one read; a pass whose digit is shared by all
// elements is the identity and is skipped. When the last pass that
// moves elements writes the other side than toScratch asks, one copy
// lands them.
func radixUintPasses[S element.Elem, K element.Uint](keys, scratch []S, toScratch bool, passes, bits int, count []uint32) {
	n := len(keys)
	size := 1 << bits
	mask := K(size - 1)
	count = count[:passes*size]
	clear(count)
	for i := range keys {
		k := element.KeyOf[K](&keys[i])
		for p, off := 0, 0; p < passes; p, off = p+1, off+size {
			count[off+int(k>>(uint(p*bits))&mask)]++
		}
	}
	var moving [64 / radixSmallBits]int
	m := 0
	k0 := element.KeyOf[K](&keys[0])
	for p := 0; p < passes; p++ {
		if count[p*size+int(k0>>uint(p*bits)&mask)] != uint32(n) {
			moving[m] = p
			m++
		}
	}
	src, dst := keys, scratch
	for _, p := range moving[:m] {
		shift := uint(p * bits)
		cnt := count[p*size : (p+1)*size]
		sum := uint32(0)
		for j := range cnt {
			c := cnt[j]
			cnt[j] = sum
			sum += c
		}
		for j := range src {
			e := &src[j]
			r := int(element.KeyOf[K](e) >> shift & mask)
			dst[cnt[r]] = *e
			cnt[r]++
		}
		src, dst = dst, src
	}
	if (&src[0] == &keys[0]) == toScratch {
		copy(dst, src)
	}
}

// Sort sorts keys in place in the direction given by asc, using radix
// sort (a descending sort is an ascending sort followed by a linear
// reversal).
func Sort[E element.Elem](keys []E, asc bool) {
	RadixSort(keys)
	if !asc {
		Reverse(keys)
	}
}

// SortScratch is Sort with a caller-owned radix ping-pong buffer; see
// RadixSortTo.
func SortScratch[E element.Elem](keys []E, asc bool, scratch []E) {
	RadixSortTo(keys, scratch, false)
	if !asc {
		Reverse(keys)
	}
}

// Reverse reverses keys in place.
func Reverse[E element.Elem](keys []E) {
	for i, j := 0, len(keys)-1; i < j; i, j = i+1, j-1 {
		keys[i], keys[j] = keys[j], keys[i]
	}
}

// SortBitonicBlocks sorts each contiguous block of blockLen keys, every
// block being a bitonic sequence: block b ascending iff b&descMask == 0.
// This is the Theorem 2/3 phase-one primitive. Blocks are independent,
// so they sort on idle helper lanes, tile k in the k-th blockLen slice
// of scratch (len(keys) always suffices; a short one is allocated).
func SortBitonicBlocks[E element.Elem](keys []E, blockLen, descMask int, scratch []E) {
	if blockLen <= 0 || len(keys)%blockLen != 0 {
		panic("localsort: SortBitonicBlocks bad block length")
	}
	nb := len(keys) / blockLen
	wp := kernelPool()
	grain := (nb + wp.Size() - 1) / wp.Size()
	if need := (nb + grain - 1) / grain * blockLen; len(scratch) < need {
		scratch = make([]E, need)
	}
	b := getTiles[blockTiles[E], E](&blockStash)
	*b = blockTiles[E]{keys: keys, scratch: scratch, blockLen: blockLen, descMask: descMask, grain: grain}
	wp.ParallelTiles(nb, grain, b)
	*b = blockTiles[E]{}
	blockStash[element.TypeOf[E]()].Put(b)
}

// blockTiles is a SortBitonicBlocks call's tile state.
type blockTiles[E element.Elem] struct {
	keys, scratch             []E
	blockLen, descMask, grain int
}

// Tile sorts blocks [lo, hi) in the scratch slice of tile lo/grain.
func (b *blockTiles[E]) Tile(lo, hi int) {
	k := lo / b.grain
	sortBlockRange(b.keys, b.blockLen, b.descMask, b.scratch[k*b.blockLen:(k+1)*b.blockLen], lo, hi)
}

func sortBlockRange[E element.Elem](keys []E, blockLen, descMask int, scratch []E, lo, hi int) {
	for b := lo; b < hi; b++ {
		blk := keys[b*blockLen : (b+1)*blockLen]
		bitseq.SortBitonic(scratch[:blockLen], blk, b&descMask == 0)
		copy(blk, scratch[:blockLen])
	}
}

// stridedGroupBytes bounds the column-group working set of
// SortBitonicStridedBatch so gathers, sorts and scatters stay
// cache-resident.
const stridedGroupBytes = 32 << 10

// SortBitonicStridedBatch runs the complete phase-two sweep of a
// crossing remap (Theorem 3): it sorts ALL stride interleaved columns
// keys[d], keys[d+stride], ... (count elements each, each bitonic) in
// direction asc. A column-at-a-time sweep streams the entire array
// once per column because consecutive column elements sit stride
// apart; this kernel processes columns in cache-sized groups — one
// sequential pass gathers a group into contiguous per-column scratch,
// the sorts run in cache, one sequential pass scatters back — so every
// cache line of keys is loaded O(stride/group) times instead of stride
// times.
//
// Each lane wants (group+1)*count elements of scratch, where group =
// stridedGroupBytes / (count * elem width); pass what you have (nil
// allocates) — an undersized scratch only shrinks the group. Column
// groups touch disjoint key columns, so on a multi-lane pool they run
// on idle helper lanes, tile k in the k-th lane share of scratch.
func SortBitonicStridedBatch[E element.Elem](keys []E, stride, count int, asc bool, scratch []E) {
	if stride <= 0 || count <= 0 || stride*count != len(keys) {
		panic("localsort: SortBitonicStridedBatch dimension mismatch")
	}
	w := int(element.TypeOf[E]().Width())
	g := min(max(stridedGroupBytes/(count*w), 1), stride)
	wp := kernelPool()
	lanes := min(wp.Size(), (stride+g-1)/g)
	if per := len(scratch) / lanes; per >= 2*count && per < (g+1)*count {
		g = per/count - 1 // work within the caller's scratch
	}
	if len(scratch) < lanes*(g+1)*count {
		scratch = make([]E, lanes*(g+1)*count)
	}
	ng := (stride + g - 1) / g
	st := getTiles[stridedTiles[E], E](&stridedStash)
	*st = stridedTiles[E]{keys: keys, scratch: scratch, stride: stride, count: count, asc: asc, g: g, grain: (ng + lanes - 1) / lanes}
	wp.ParallelTiles(ng, st.grain, st)
	*st = stridedTiles[E]{}
	stridedStash[element.TypeOf[E]()].Put(st)
}

// stridedTiles is a SortBitonicStridedBatch call's tile state.
type stridedTiles[E element.Elem] struct {
	keys, scratch           []E
	stride, count, g, grain int
	asc                     bool
}

// Tile sorts column groups [lo, hi) in tile lo/grain's scratch share.
func (s *stridedTiles[E]) Tile(lo, hi int) {
	k, share := lo/s.grain, (s.g+1)*s.count
	stridedGroupRange(s.keys, s.stride, s.count, s.asc, s.g, s.scratch[k*share:(k+1)*share], lo, hi)
}

// stridedGroupRange processes column groups [lo,hi): gather the group's
// columns into contiguous scratch, sort each in cache, scatter back.
func stridedGroupRange[E element.Elem](keys []E, stride, count int, asc bool, g int, scratch []E, lo, hi int) {
	cols := scratch[:g*count]
	tmp := scratch[g*count : (g+1)*count]
	for gi := lo; gi < hi; gi++ {
		d0 := gi * g
		gn := min(g, stride-d0)
		for j := 0; j < count; j++ {
			row := keys[j*stride+d0 : j*stride+d0+gn]
			for c, v := range row {
				cols[c*count+j] = v
			}
		}
		for c := 0; c < gn; c++ {
			col := cols[c*count : (c+1)*count]
			bitseq.SortBitonic(tmp, col, asc)
			copy(col, tmp)
		}
		for j := 0; j < count; j++ {
			row := keys[j*stride+d0 : j*stride+d0+gn]
			for c := range row {
				row[c] = cols[c*count+j]
			}
		}
	}
}
