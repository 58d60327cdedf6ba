package localsort

import (
	"unsafe"

	"parbitonic/element"
)

// The merge kernels: MergeTwo and MergeRuns. Each runs one generic body
// over the key view of element.KeyOf — storage S, keys compared
// natively as K — for all five element types, and integer storage lets
// the two-run kernel select the emitted element with a conditional move
// instead of a jump. Records keep their payloads, and no comparison or
// emission goes through a func value or an interface.

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

// cursor walks a run in storage order: i is the storage index of the
// head, n counts the elements left, left those left in the head's
// segment, and the step out of a segment's last element skips gap more.
type cursor struct{ i, n, left, seg, gap int }

func (r RunOf[E]) cursor() cursor {
	sg := r.seg()
	return cursor{0, r.Len(), sg, sg, r.step() - sg}
}

// next advances c past its head.
func (c *cursor) next() {
	c.i++
	c.n--
	if c.left--; c.left == 0 {
		c.i += c.gap
		c.left = c.seg
	}
}

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
// two-ended loop for two non-empty runs without segments, a loser tree
// — O(total · log p) comparisons — for more, or for segmented runs.
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

// mergeRunsOf picks the kernel by the number of non-empty runs; empty
// runs take no part in any of them. Segmented runs go to the loser
// tree, which steps them by its cursors: only merges of eight runs or
// more meet them (FullSort's deals with s >= 1 need c >= 3).
func mergeRunsOf[S element.Elem, K element.Ord](dst []S, runs []RunOf[S]) {
	live, first, second, segs := 0, 0, 0, false
	for r := range runs {
		if len(runs[r].Keys) == 0 {
			continue
		}
		switch live {
		case 0:
			first = r
		case 1:
			second = r
		}
		live++
		segs = segs || runs[r].seg() > 1
	}
	switch {
	case live == 0:
	case segs || live > 2:
		mergeTree[S, K](dst, runs)
	case live == 1:
		emitRun(dst, runs[first].Keys, 0, runs[first].step())
	default:
		mergeTwoRuns[S, K](dst, runs[first], runs[second])
	}
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

// maxStackRuns bounds the tournament state kept in stack arrays: runs
// of p-way merges with p beyond it (no algorithm in this module gets
// there below P=16) fall back to heap tables.
const maxStackRuns = 16

// loserTree is the tournament of mergeTree over size (a power of two)
// leaves, one per run plus dead padding. node[0] is the current winner
// and node[1..size-1] hold the loser of each internal match, so
// replaying a winner's path costs one comparison per level. head caches
// each run's head key; an exhausted run loses every match, and equal
// keys go to the lower run index, the two-run kernel's rule.
type loserTree[S element.Elem, K element.Ord] struct {
	runs []RunOf[S]
	cur  []cursor
	head []K
	node []int
}

// beats reports whether run x wins its match against run y.
func (t *loserTree[S, K]) beats(x, y int) bool {
	if t.cur[y].n == 0 {
		return true
	}
	if t.cur[x].n == 0 {
		return false
	}
	return t.head[x] < t.head[y] || t.head[x] == t.head[y] && x < y
}

// init plays every match bottom-up, recording winners, then turns each
// internal node into the loser of its match (top-down, so the children
// still hold their winners when their parent is converted).
func (t *loserTree[S, K]) init() {
	size := len(t.cur)
	for r := range t.cur {
		t.cur[r] = cursor{}
		if r < len(t.runs) {
			t.cur[r] = t.runs[r].cursor()
		}
		if t.cur[r].n > 0 {
			t.head[r] = element.KeyOf[K](&t.runs[r].Keys[t.cur[r].i])
		}
		t.node[size+r] = r
	}
	for nd := size - 1; nd > 0; nd-- {
		l, r := t.node[2*nd], t.node[2*nd+1]
		t.node[nd] = r
		if t.beats(l, r) {
			t.node[nd] = l
		}
	}
	t.node[0] = t.node[1]
	for nd := 1; nd < size; nd++ {
		l, r := t.node[2*nd], t.node[2*nd+1]
		if t.node[nd] == l {
			t.node[nd] = r
		} else {
			t.node[nd] = l
		}
	}
}

// pop returns the winning run and the storage index of its head, then
// advances that run and replays its path to the root.
func (t *loserTree[S, K]) pop() (int, int) {
	w := t.node[0]
	c := &t.cur[w]
	i := c.i
	c.next()
	if c.n > 0 {
		t.head[w] = element.KeyOf[K](&t.runs[w].Keys[c.i])
	}
	x := w
	for nd := (w + len(t.cur)) >> 1; nd > 0; nd >>= 1 {
		if y := t.node[nd]; t.beats(y, x) {
			t.node[nd], x = x, y
		}
	}
	t.node[0] = x
	return w, i
}

// mergeTree merges three or more runs, or segmented ones, through a
// loser tree into dst. All its state lives in stack arrays for up to
// maxStackRuns runs, so the steady-state merge allocates nothing.
func mergeTree[S element.Elem, K element.Ord](dst []S, runs []RunOf[S]) {
	size := 1
	for size < len(runs) {
		size *= 2
	}
	var curBuf [maxStackRuns]cursor
	var headBuf [maxStackRuns]K
	var nodeBuf [2 * maxStackRuns]int
	t := loserTree[S, K]{runs: runs}
	if size <= maxStackRuns {
		t.cur, t.head, t.node = curBuf[:size], headBuf[:size], nodeBuf[:2*size]
	} else {
		t.cur, t.head, t.node = make([]cursor, size), make([]K, size), make([]int, 2*size)
	}
	t.init()
	for j := range dst {
		r, i := t.pop()
		dst[j] = runs[r].Keys[i]
	}
}
