// Package localsort provides the fast local computation routines of
// Chapter 4: LSD radix sort (the paper's choice for the first lg n
// stages, §4.4), linear two-way and p-way merges (§4.3's unpack fusion),
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
	"sync"
	"sync/atomic"

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

// Digit widths of the adaptive radix layout. Small inputs use 8-bit
// LSD digits: the count tables live on the stack and the pass count
// per 32 bits is even, so the last permute lands back in the caller's
// array with no copy-back. Large key-only inputs switch to the hybrid
// layout — one MSD partition by the top 11 bits (the paper's digit
// width) into 2048 regions, each finished by an 11-bit LSD radix whose
// working set is cache-resident (see radixUintHybrid). KV64 records
// keep a flat LSD with 16-bit digits: fewer whole-record permute
// passes beat partition locality at 16 bytes per element.
const (
	radixSmallBits = 8
	radixSmallSize = 1 << radixSmallBits
	radixLargeBits = 16
	radixLargeSize = 1 << radixLargeBits

	// hybridTopBits is the MSD partition width of the large-n hybrid;
	// hybridMaxLowPasses bounds its per-region LSD pass count
	// (ceil((64-11)/11) for uint64 keys).
	hybridTopBits      = 11
	hybridTopSize      = 1 << hybridTopBits
	hybridMaxLowPasses = 5

	// radixLargeMin is the element count from which the large layouts
	// pay for their table zeroing and prefix sums.
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

// countPool recycles the large-layout count tables across radix sorts:
// the KV64 16-bit LSD wants up to 4 passes × 64Ki uint32 entries, and
// the key hybrid borrows a small prefix for its partition and region
// tables.
var countPool = sync.Pool{
	New: func() any {
		b := make([]uint32, 4*radixLargeSize)
		return &b
	},
}

// The parallel kernels' tile states (their arguments, no closure),
// stashed per element type so dispatching tiles allocates nothing.
var hybridStash, blockStash, stridedStash [5]workpool.Stash

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
// left undefined). The key hybrid lands on either side at no cost; the
// flat LSD layouts copy once to land in scratch.
func RadixSortTo[E element.Elem](keys, scratch []E, toScratch bool) {
	if len(scratch) < len(keys) {
		if toScratch {
			panic("localsort: RadixSortTo scratch shorter than keys")
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
// key-only storage itself, or a KV64 record's key. Small inputs run a
// flat LSD with 8-bit digits and stack tables. Large key-only inputs
// take the cache-blocked MSD+LSD hybrid; large record inputs a flat
// LSD with 16-bit digits over pooled tables. Every layout is stable,
// so the choice is invisible in the output.
func radixUint[S element.Elem, K element.Uint](keys, scratch []S, toScratch bool) {
	keyBits := element.KeyBits[S]()
	switch {
	case len(keys) < radixLargeMin:
		var count [(64 / radixSmallBits) * radixSmallSize]uint32
		radixUintPasses[S, K](keys, scratch, toScratch, keyBits/radixSmallBits, radixSmallBits, count[:])
	case element.TypeOf[S]() == element.TKV64:
		cp := countPool.Get().(*[]uint32)
		radixUintPasses[S, K](keys, scratch, toScratch, keyBits/radixLargeBits, radixLargeBits, *cp)
		countPool.Put(cp)
	default:
		radixUintHybrid(element.Cast[K](keys), element.Cast[K](scratch), keyBits, toScratch)
	}
}

// radixUintHybrid sorts large key arrays with one MSD partition pass
// followed by cache-resident LSD finishing. The top hybridTopBits bits
// scatter every key into its final 2048-aligned region — a few hundred
// elements each on uniform inputs — and each region is then finished
// independently by an LSD radix over the remaining low bits whose
// working set (region, bounce space, count tables) stays in cache.
// DRAM sees three sequential sweeps (histogram, partition read,
// partition write) plus one read+write of cache-warm regions, versus
// the 2·passes+3 full-array sweeps of the flat layout whose every
// permute round-trips memory. The finishing passes end where the
// partition wrote iff their count is even, so that parity and the
// landing side pick the partition target with no final copy; a target
// of keys is first mirrored into scratch in the histogram read. Region
// scatter is stable and the per-region LSD is stable, so
// the whole is a stable sort like the flat layout it replaces.
func radixUintHybrid[T element.Uint](keys, scratch []T, keyBits int, toScratch bool) {
	topShift := uint(keyBits - hybridTopBits)
	lowBits := keyBits - hybridTopBits
	passes := (lowBits + hybridTopBits - 1) / hybridTopBits
	cp := countPool.Get().(*[]uint32)
	count := (*cp)[:hybridTopSize]
	starts := (*cp)[hybridTopSize : 2*hybridTopSize]
	clear(count)
	dst, other := keys, scratch
	if toScratch {
		dst, other = scratch, keys
	}
	into := dst
	if passes&1 != 0 {
		into, other = other, dst
	}
	from := keys
	if &into[0] == &keys[0] {
		for i, k := range keys {
			count[int(k>>topShift)]++
			scratch[i] = k
		}
		from = scratch
	} else {
		for _, k := range keys {
			count[int(k>>topShift)]++
		}
	}
	sum := uint32(0)
	for d := range count {
		c := count[d]
		count[d] = sum
		starts[d] = sum
		sum += c
	}
	for _, k := range from {
		d := int(k >> topShift)
		into[count[d]] = k
		count[d]++
	}
	// Regions are disjoint in keys, scratch and the shared (now
	// read-only) offset tables, so they finish in parallel on whatever
	// helper lanes are idle; each tile draws its own digit tables from
	// the pool.
	wp := kernelPool()
	if wp.Size() == 1 {
		// Sequential: borrow cp's tail for the digit tables.
		low := (*cp)[2*hybridTopSize : (2+hybridMaxLowPasses)*hybridTopSize]
		hybridFinishRange(dst, into, other, starts, count, lowBits, low, 0, hybridTopSize)
	} else {
		h := getTiles[hybridTiles[T], T](&hybridStash)
		*h = hybridTiles[T]{dst: dst, into: into, other: other, starts: starts, count: count, lowBits: lowBits}
		wp.ParallelTiles(hybridTopSize, (hybridTopSize+wp.Size()-1)/wp.Size(), h)
		*h = hybridTiles[T]{}
		hybridStash[element.TypeOf[T]()].Put(h)
	}
	countPool.Put(cp)
}

// hybridTiles is the state a hybrid sort's region tiles share.
type hybridTiles[T element.Uint] struct {
	dst, into, other []T
	starts, count    []uint32
	lowBits          int
}

// Tile finishes regions [dlo, dhi) with digit tables of its own.
func (h *hybridTiles[T]) Tile(dlo, dhi int) {
	tp := countPool.Get().(*[]uint32)
	low := (*tp)[:hybridMaxLowPasses*hybridTopSize]
	hybridFinishRange(h.dst, h.into, h.other, h.starts, h.count, h.lowBits, low, dlo, dhi)
	countPool.Put(tp)
}

// hybridFinishRange finishes the hybrid regions [dlo, dhi): each
// region of into is LSD-sorted over its low bits, bouncing through
// other, and lands in dst.
func hybridFinishRange[T element.Uint](dst, into, other []T, starts, count []uint32, lowBits int, low []uint32, dlo, dhi int) {
	for d := dlo; d < dhi; d++ {
		lo, hi := int(starts[d]), int(count[d])
		if hi-lo < 2 {
			if hi == lo+1 {
				dst[lo] = into[lo]
			}
			continue
		}
		res := lsdLow(into[lo:hi], other[lo:hi], lowBits, low)
		if &res[0] != &dst[lo] {
			copy(dst[lo:hi], res)
		}
	}
}

// lsdLow finishes one hybrid region: it sorts seg by its low lowBits
// bits with 11-bit digits (the last pass takes the remainder), bouncing
// between seg and buf, and returns whichever of the two holds the
// result. Identity passes (single occupied bucket) are skipped. The
// two-pass shape every uint32 region takes is unrolled — its fused
// histogram read is the hottest loop of the large-n sort.
func lsdLow[T element.Uint](seg, buf []T, lowBits int, count []uint32) []T {
	n := uint32(len(seg))
	if lowBits == 21 { // uint32 keys: one 11-bit and one 10-bit pass
		c0 := count[:1<<11]
		c1 := count[1<<11 : 1<<11+1<<10]
		clear(c0)
		clear(c1)
		for _, k := range seg {
			c0[int(k&0x7ff)]++
			c1[int(k>>11&0x3ff)]++
		}
		src, dst := seg, buf
		if c0[int(src[0]&0x7ff)] != n {
			scatterPass(src, dst, 0, 0x7ff, c0)
			src, dst = dst, src
		}
		if c1[int(src[0]>>11&0x3ff)] != n {
			scatterPass(src, dst, 11, 0x3ff, c1)
			src, dst = dst, src
		}
		return src
	}
	var shifts [hybridMaxLowPasses]uint
	var masks [hybridMaxLowPasses]T
	var offs [hybridMaxLowPasses]int
	passes, off := 0, 0
	for b := 0; b < lowBits; b += hybridTopBits {
		w := min(hybridTopBits, lowBits-b)
		shifts[passes] = uint(b)
		masks[passes] = T(1)<<w - 1
		offs[passes] = off
		off += 1 << w
		passes++
	}
	clear(count[:off])
	for _, k := range seg {
		for p := 0; p < passes; p++ {
			count[offs[p]+int(k>>shifts[p]&masks[p])]++
		}
	}
	src, dst := seg, buf
	for p := 0; p < passes; p++ {
		cnt := count[offs[p] : offs[p]+int(masks[p])+1]
		if cnt[int(src[0]>>shifts[p]&masks[p])] == n {
			continue
		}
		scatterPass(src, dst, shifts[p], masks[p], cnt)
		src, dst = dst, src
	}
	return src
}

// scatterPass turns the digit histogram cnt into running offsets and
// permutes src into dst by the digit at shift/mask — one stable
// counting-sort pass.
func scatterPass[T element.Uint](src, dst []T, shift uint, mask T, cnt []uint32) {
	sum := uint32(0)
	for d := range cnt {
		c := cnt[d]
		cnt[d] = sum
		sum += c
	}
	for _, k := range src {
		d := int(k >> shift & mask)
		dst[cnt[d]] = k
		cnt[d]++
	}
}

// radixUintPasses is the flat LSD layout: passes stable counting
// passes of bits-wide digits of each element's K key, whole elements
// moved per pass, bouncing between keys and scratch (one copy lands
// the result on the side toScratch asks). The histograms of every pass fill in one read; a pass whose digit is
// shared by all elements is the identity and is skipped.
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
	src, dst := keys, scratch
	for p := 0; p < passes; p++ {
		shift := uint(p * bits)
		cnt := count[p*size : (p+1)*size]
		if cnt[int(element.KeyOf[K](&src[0])>>shift&mask)] == uint32(n) {
			continue // all keys share this digit: the pass is the identity
		}
		sum := uint32(0)
		for d := range cnt {
			c := cnt[d]
			cnt[d] = sum
			sum += c
		}
		for i := range src {
			e := &src[i]
			d := int(element.KeyOf[K](e) >> shift & mask)
			dst[cnt[d]] = *e
			cnt[d]++
		}
		src, dst = dst, src
	}
	if toScratch {
		keys = scratch
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
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

// SortBitonicStrided sorts the strided subsequence
// keys[start], keys[start+stride], ... (count elements), which must be
// bitonic, in the direction given by asc. Used for the second phase of
// a crossing remap (Theorem 3), where the blocks to sort are
// interleaved in local memory. scratch needs 2*count capacity.
func SortBitonicStrided[E element.Elem](keys []E, start, stride, count int, asc bool, scratch []E) {
	if len(scratch) < 2*count {
		scratch = make([]E, 2*count)
	}
	in, out := scratch[:count], scratch[count:2*count]
	for i := 0; i < count; i++ {
		in[i] = keys[start+i*stride]
	}
	bitseq.SortBitonic(out, in, asc)
	for i := 0; i < count; i++ {
		keys[start+i*stride] = out[i]
	}
}

// stridedGroupBytes bounds the column-group working set of
// SortBitonicStridedBatch so gathers, sorts and scatters stay
// cache-resident.
const stridedGroupBytes = 32 << 10

// SortBitonicStridedBatch runs the complete phase-two sweep of a
// crossing remap (Theorem 3): it sorts ALL stride interleaved columns
// keys[d], keys[d+stride], ... (count elements each, each bitonic) in
// direction asc. Column-at-a-time sweeps (SortBitonicStrided in a
// loop) stream the entire array once per column because consecutive
// column elements sit stride apart; this version processes columns in
// cache-sized groups — one sequential pass gathers a group into
// contiguous per-column scratch, the sorts run in cache, one
// sequential pass scatters back — so every cache line of keys is
// loaded O(stride/group) times instead of stride times.
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
