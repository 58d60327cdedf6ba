package localsort

import (
	"unsafe"

	"parbitonic/element"
)

// The merge kernels: MergeTwo and MergeRuns. Every merge goes through
// one two-run kernel; more runs, or segmented ones, merge chunk by
// chunk in a pairwise cascade of it. The kernel runs one generic body
// over the key view of element.KeyOf — storage S, keys compared
// natively as K — for all five element types, and integer storage lets
// it select the emitted element with a conditional move instead of a
// jump. Records keep their payloads, and no comparison or emission goes
// through a func value or an interface.

// RunOf is one ascending input run for MergeRuns: Seg elements of Keys
// from index 0, then Seg from index Stride, from 2·Stride, ..., as
// long as a whole segment remains. Seg 0 or 1 reads one element every
// Stride, and Stride 0 or 1 reads every element of Keys. A strided run
// reads a message in place out of the sender's whole array (DealtRun).
type RunOf[E element.Elem] struct {
	Keys        []E
	Stride, Seg int
}

// Run is a uint32 run, the element type of the paper's experiments.
type Run = RunOf[uint32]

// DealtRun returns the run that a FullSort remap dealing with shape
// (s, c) — addr.RemapPlan.Deal — sends to group member g out of arr,
// the sender's keys sorted ascending, read in place. The deal sends
// local address l to member (l>>s) & (2^c-1), in address order, and
// rank i sits at address i, or n-1-i on a descending sender, which
// complements the member bits. So the run is the 2^s-key segments of
// arr at stride 2^(s+c) from segment g, or g XOR (2^c-1) when desc; a
// run of one segment is contiguous. len(arr) must be a multiple of
// 2^(s+c).
func DealtRun[E element.Elem](arr []E, s, c, g int, desc bool) RunOf[E] {
	if desc {
		g ^= 1<<c - 1
	}
	seg, stride := 1<<s, 1<<(s+c)
	if stride == len(arr) {
		return RunOf[E]{Keys: arr[g*seg : (g+1)*seg]}
	}
	return RunOf[E]{Keys: arr[g*seg:], Stride: stride, Seg: seg}
}

// Len returns the number of elements of r.
func (r RunOf[E]) Len() int {
	st, sg := r.step(), r.seg()
	return (len(r.Keys) + st - sg) / st * sg
}

// step returns the storage distance between consecutive segments of r.
func (r RunOf[E]) step() int { return max(r.Stride, 1) }

// seg returns the length of r's segments.
func (r RunOf[E]) seg() int { return min(max(r.Seg, 1), r.step()) }

// MergeTwo merges the ascending-sorted slices a and b into dst (whose
// length must be len(a)+len(b)) ascending, with the two-run kernel
// MergeRuns uses.
func MergeTwo[E element.Elem](dst, a, b []E) {
	if len(dst) != len(a)+len(b) {
		panic("localsort: MergeTwo length mismatch")
	}
	runs := [2]RunOf[E]{{Keys: a}, {Keys: b}}
	mergeRuns(dst, runs[:])
}

// MergeRuns merges the sorted runs into dst ascending: a branchless
// two-ended loop for two non-empty runs without segments, and for more
// runs, or segmented ones, a cascade of that loop over cache-sized
// chunks (mergeChunked) — O(total · log p) comparisons either way.
// Equal keys come out in run order. This is the p-way merge the paper
// fuses with unpacking so the separate unpack pass disappears (§4.3).
func MergeRuns[E element.Elem](dst []E, runs []RunOf[E]) {
	if len(dst) != runsLen(runs) {
		panic("localsort: MergeRuns length mismatch")
	}
	mergeRuns(dst, runs)
}

func runsLen[E element.Elem](runs []RunOf[E]) int {
	n := 0
	for _, r := range runs {
		n += r.Len()
	}
	return n
}

// mergeRuns dispatches once per call on the element kind. Float
// elements merge over their same-width integer storage: the run table
// and dst are recast (identical layouts) and only the key view stays
// float, so comparisons keep float order.
func mergeRuns[E element.Elem](dst []E, runs []RunOf[E]) {
	switch any(*new(E)).(type) {
	case uint32:
		mergeRunsOf[E, uint32](dst, runs)
	case uint64, element.KV64:
		mergeRunsOf[E, uint64](dst, runs)
	case float32:
		mergeRunsOf[uint32, float32](element.Cast[uint32](dst), *element.Recast[[]RunOf[uint32]](&runs))
	case float64:
		mergeRunsOf[uint64, float64](element.Cast[uint64](dst), *element.Recast[[]RunOf[uint64]](&runs))
	}
}

// mergeRunsOf merges the non-empty runs, the others taking no part:
// two without segments through the two-run kernel, more, or segmented
// ones, chunk by chunk (mergeChunked). Only merges of eight runs or
// more meet segments (FullSort's deals with s >= 1 need c >= 3).
func mergeRunsOf[S element.Elem, K element.Ord](dst []S, runs []RunOf[S]) {
	m := getTiles[mergeChunks[S], S](&mergeStash)
	m.runs = m.runs[:0]
	segs := false
	for _, r := range runs {
		if len(r.Keys) > 0 {
			m.runs = append(m.runs, r)
			segs = segs || r.seg() > 1
		}
	}
	switch k := len(m.runs); {
	case k == 1:
		gatherRun(dst, m.runs[0], 0)
	case k == 2 && !segs:
		mergeTwoRuns[S, K](dst, m.runs[0], m.runs[1])
	case k > 0:
		mergeChunked[S, K](m, dst)
	}
	clear(m.runs)
	mergeStash[element.TypeOf[S]()].Put(m)
}

// mergeTwoRuns is the two-run kernel. Its front end takes the smaller
// head into dst from the start and its back end the larger tail into
// dst from the end: two chains that do not wait on each other. It
// works in blocks of min(na, nb) steps, na and nb counting what is
// left of each run between its head and its tail: their distance
// divided by the run's step, plus one.
// The k smallest and the k largest elements are disjoint while
// 2k <= na+nb, and neither run can run dry inside a block, so the
// block loops check no counts, and two runs of equal length finish in
// one block. Once a run is exhausted the front emits the other's
// middle.
func mergeTwoRuns[S element.Elem, K element.Ord](dst []S, a, b RunOf[S]) {
	sa, sb := a.step(), b.step()
	ia, ib := 0, 0                           // heads
	ja, jb := (a.Len()-1)*sa, (b.Len()-1)*sb // tails
	f, k := 0, len(dst)                      // dst[f:k] is still to fill
	for m := min((ja-ia)/sa, (jb-ib)/sb) + 1; m > 0; m = min((ja-ia)/sa, (jb-ib)/sb) + 1 {
		ia, ib, ja, jb = mergeEnds[S, K](dst[f:f+m], dst[k-m:k], a.Keys, b.Keys, ia, ib, ja, jb, sa, sb)
		f, k = f+m, k-m
	}
	if ja >= ia {
		emitRun(dst[f:k], a.Keys, ia, sa)
	} else {
		emitRun(dst[f:k], b.Keys, ib, sb)
	}
}

// checkBlock panics unless n >= 1 steps of both chains stay inside the
// runs a and b. A chain's index in a run only moves one way, by at most
// one per step, so it checks how far each head and tail can get.
func checkBlock[S element.Elem](n int, a, b []S, ia, ib, ja, jb, sa, sb int) {
	if n < 1 {
		panic("localsort: empty merge block")
	}
	k := n - 1
	_, _, _, _ = a[ia], a[ia+k*sa], a[ja], a[ja-k*sa]
	_, _, _, _ = b[ib], b[ib+k*sb], b[jb], b[jb-k*sb]
}

// mergeEnds runs len(fo) steps of both chains of mergeTwoRuns: the
// front compares the heads a[ia] and b[ib], emits the smaller, a's on a
// tie, and fills fo forward; the back compares the tails a[ja] and
// b[jb], emits the larger, b's on a tie, and fills bo (as long as fo)
// backward, so equal keys keep run order. Each comparison sets the
// flags that both select the emitted element by conditional move and,
// through a 0/1 value, mask the step of the one index that moves; no
// jump depends on a key. It returns the moved heads and tails.
//
// It reads the runs through unsafe.Add, with the block's bounds
// checked once by checkBlock, and takes the key view of element.KeyOf
// inline. Per-element bounds checks, or the generic call's dictionary
// load, take the registers that keep both chains' indices out of
// memory; spilled, each step waits on a store-forward, and the loop ran
// 60 % slower (u32, 2^19 keys).
func mergeEnds[S element.Elem, K element.Ord](fo, bo []S, a, b []S, ia, ib, ja, jb, sa, sb int) (int, int, int, int) {
	n := len(fo)
	checkBlock(n, a, b, ia, ib, ja, jb, sa, sb)
	pa, pb := unsafe.Pointer(unsafe.SliceData(a)), unsafe.Pointer(unsafe.SliceData(b))
	z := int(unsafe.Sizeof(*new(S)))
	pf, pk := unsafe.Pointer(&fo[0]), unsafe.Pointer(&bo[n-1])
	for c := n; ; {
		ea, eb := (*S)(unsafe.Add(pa, ia*z)), (*S)(unsafe.Add(pb, ib*z))
		x, y := *ea, *eb
		lt := *(*K)(unsafe.Pointer(eb)) < *(*K)(unsafe.Pointer(ea))
		if lt {
			x = y
		}
		t := 0
		if lt {
			t = 1
		}
		fa, fb := (*S)(unsafe.Add(pa, ja*z)), (*S)(unsafe.Add(pb, jb*z))
		u, v := *fa, *fb
		gt := *(*K)(unsafe.Pointer(fa)) > *(*K)(unsafe.Pointer(fb))
		if gt {
			v = u
		}
		r := 0
		if gt {
			r = 1
		}
		ia += sa & (t - 1)
		ib += sb & -t
		ja -= sa & -r
		jb -= sb & (r - 1)
		*(*S)(pf) = x
		*(*S)(pk) = v
		if c--; c == 0 {
			break // pf and pk stay inside fo and bo
		}
		pf, pk = unsafe.Add(pf, z), unsafe.Add(pk, -z)
	}
	return ia, ib, ja, jb
}

// emitRun fills dst with the elements of one run without segments,
// from storage index i on by step: one bulk copy where the run is
// contiguous.
func emitRun[S element.Elem](dst, keys []S, i, step int) {
	if step == 1 {
		copy(dst, keys[i:])
		return
	}
	for j := range dst {
		dst[j] = keys[i+j*step]
	}
}

// gatherRun fills out with r's elements from rank on: by emitRun for a
// run without segments, else element by element across them.
func gatherRun[S element.Elem](out []S, r RunOf[S], rank int) {
	sg, st := r.seg(), r.step()
	if sg == 1 {
		emitRun(out, r.Keys, rank*st, st)
		return
	}
	i, o := rank/sg*st, rank%sg
	for j := range out {
		out[j] = r.Keys[i+o]
		if o++; o == sg {
			i, o = i+st, 0
		}
	}
}

// mergeChunkBytes is the size of one chunk of a chunked merge's output:
// the chunk and the buffer its cascade bounces through stay in cache.
const mergeChunkBytes = 64 << 10

// mergeChunks is a merge's working set, stashed per storage type so
// steady-state merges allocate nothing: the non-empty runs, each one's
// first rank not yet merged, the offsets of the current chunk's pieces,
// and the buffer the chunk's cascade bounces through.
type mergeChunks[S element.Elem] struct {
	runs []RunOf[S]
	pos  []int
	off  []int // piece r of the chunk fills [off[r], off[r+1])
	buf  []S
}

// mergeChunked merges m's runs into dst a chunk of at most c keys at a
// time. With k runs and d = c/k, a chunk ends before the (key,
// run)-smallest of each run's element d ranks past the chunk start, so
// that run gives d keys to the chunk, every other run at most d (one
// binary search over d+1 keys finds its cut), and equal keys go to the
// lower run at every cut. The chunk's pieces then merge pairwise
// through the two-run kernel (mergeCascade).
func mergeChunked[S element.Elem, K element.Ord](m *mergeChunks[S], dst []S) {
	k := len(m.runs)
	m.pos, m.off = append(m.pos[:0], make([]int, k)...), append(m.off[:0], make([]int, k+1)...)
	d := max(mergeChunkBytes/int(unsafe.Sizeof(*new(S)))/k, 1)
	if need := min(k*d, len(dst)); len(m.buf) < need {
		m.buf = make([]S, need)
	}
	for done := 0; done < len(dst); {
		b, bk := -1, *new(K)
		for r, run := range m.runs {
			if i := m.pos[r] + d; i < run.Len() {
				if key := keyAt[S, K](run, i); b < 0 || key < bk {
					b, bk = r, key
				}
			}
		}
		for r, run := range m.runs {
			lo, hi := m.pos[r], min(m.pos[r]+d, run.Len())
			switch {
			case b < 0:
				hi = run.Len()
			case r != b:
				// The first rank that does not precede the boundary.
				for lo < hi {
					mid := int(uint(lo+hi) >> 1)
					if key := keyAt[S, K](run, mid); key < bk || r < b && key == bk {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
			}
			m.off[r+1] = m.off[r] + hi - m.pos[r]
		}
		n := m.off[k]
		mergeCascade[S, K](m, 0, k, dst[done:done+n], m.buf[:n])
		for r := range m.pos {
			m.pos[r] += m.off[r+1] - m.off[r]
		}
		done += n
	}
}

// keyAt returns the key of r's element of rank i.
func keyAt[S element.Elem, K element.Ord](r RunOf[S], i int) K {
	sg := r.seg()
	return element.KeyOf[K](&r.Keys[i/sg*r.step()+i%sg])
}

// mergeCascade merges the chunk's pieces lo..hi-1 into out and returns
// the run that holds them: out, or one unsegmented piece read in place.
// The left half of the pieces (the larger, adjacent runs first) lands
// in other, out's span of the other array, and so does the right; the
// two then merge into out, lower runs first. So the nodes of one depth
// write one array, dst's chunk or the buffer, alternately, and a
// segmented piece is gathered into the array of its depth.
func mergeCascade[S element.Elem, K element.Ord](m *mergeChunks[S], lo, hi int, out, other []S) RunOf[S] {
	if hi-lo == 1 {
		run, pos := m.runs[lo], m.pos[lo]
		if run.seg() > 1 {
			gatherRun(out, run, pos)
			return RunOf[S]{Keys: out}
		}
		if len(out) == 0 {
			return RunOf[S]{}
		}
		st := run.step()
		return RunOf[S]{Keys: run.Keys[pos*st : (pos+len(out)-1)*st+1], Stride: st}
	}
	mid := (lo + hi + 1) / 2
	split := m.off[mid] - m.off[lo]
	a := mergeCascade[S, K](m, lo, mid, other[:split], out[:split])
	b := mergeCascade[S, K](m, mid, hi, other[split:], out[split:])
	mergeTwoRuns[S, K](out, a, b)
	return RunOf[S]{Keys: out}
}
