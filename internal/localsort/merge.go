package localsort

import (
	"unsafe"

	"parbitonic/element"
	"parbitonic/internal/addr"
)

// The merge kernels: MergeTwo, MergeRuns and MergeRunsRouted. Each
// runs one generic body over the key view of element.KeyOf — storage
// S, keys compared natively as K — for all five element types, and
// integer storage lets the two-run kernel select the emitted element
// with a conditional move instead of a jump. Records keep their
// payloads, and no comparison or emission goes through a func value or
// an interface.

// RunOf is one sorted input run for MergeRuns: the elements Keys[0],
// Keys[Stride], Keys[2·Stride], ..., every element of Keys when Stride
// is 0 or 1. Desc marks runs stored in descending order (they are
// consumed from the tail), which is how the long messages from the
// second half of a communication group arrive in §4.3's unpack-fused
// merge. A strided run reads a message in place out of the sender's
// whole array: FullSort's first merge takes every second key of each
// sender's sorted share.
type RunOf[E element.Elem] struct {
	Keys   []E
	Desc   bool
	Stride int
}

// Run is a uint32 run, the element type of the paper's experiments.
type Run = RunOf[uint32]

// DealtRun returns the run that round 0 of a FullSort sends to group
// member g out of arr, the sender's share sorted ascending, read in
// place. That round is the two-way segment deal (addr.RemapPlan.Deal
// with s=0, c=1): address l goes to member l&1, and rank i sits at
// address i, or n-1-i on a descending sender, so the run is every
// second key of arr from g, or from 1-g when desc. len(arr) must be
// even.
func DealtRun[E element.Elem](arr []E, g int, desc bool) RunOf[E] {
	if desc {
		g = 1 - g
	}
	return RunOf[E]{Keys: arr[g:], Stride: 2}
}

// Len returns the number of elements of r.
func (r RunOf[E]) Len() int {
	st := r.step()
	return (len(r.Keys) + st - 1) / st
}

// step returns the storage distance between consecutive elements of r.
func (r RunOf[E]) step() int { return max(r.Stride, 1) }

// cursor walks a run in ascending key order: i is the storage index of
// the head, step is +Stride for an ascending run and -Stride for a Desc
// run read from its tail, and n counts the elements left.
type cursor struct{ i, step, n int }

func (r RunOf[E]) cursor() cursor {
	head, _, step := r.ends()
	return cursor{head, step, r.Len()}
}

// MergeTwo merges the ascending-sorted slices a and b into dst (whose
// length must be len(a)+len(b)) in the direction given by asc, with
// the two-run kernel MergeRuns uses.
func MergeTwo[E element.Elem](dst, a, b []E, asc bool) {
	if len(dst) != len(a)+len(b) {
		panic("localsort: MergeTwo length mismatch")
	}
	runs := [2]RunOf[E]{{Keys: a}, {Keys: b}}
	mergeRuns(dst, nil, nil, 0, runs[:], asc)
}

// MergeRuns merges the sorted runs into dst ascending: a branchless
// two-ended loop for two non-empty runs, a loser tree — O(total ·
// log p) comparisons — for more. Equal keys come out in run order.
// This is the p-way merge the paper fuses with unpacking so the
// separate unpack pass disappears (§4.3).
func MergeRuns[E element.Elem](dst []E, runs []RunOf[E]) {
	if len(dst) != runsLen(runs) {
		panic("localsort: MergeRuns length mismatch")
	}
	mergeRuns(dst, nil, nil, 0, runs, true)
}

// MergeRunsRouted is MergeRuns emitting through processor proc's pack
// routing under plan instead of into a contiguous array: the element of
// ascending rank e belongs at local index l = e of an ascending region
// (asc) or l = n-1-e of a descending one, and is stored in
// out[plan.Dest(proc, l)] at plan.PackOffset(l). Packing for the next
// remap is then the merge's own emission pass — the thesis's "single
// local computation step" (Ch. 7). It fills a pack segment
// (plan.PackSegment) at a time as one slice of its message. The runs
// must hold the plan's n local keys in total.
func MergeRunsRouted[E element.Elem](out [][]E, plan *addr.RemapPlan, proc int, runs []RunOf[E], asc bool) {
	if runsLen(runs) != plan.Old.LocalN() {
		panic("localsort: MergeRunsRouted length mismatch")
	}
	mergeRuns(nil, out, plan, proc, runs, asc)
}

func runsLen[E element.Elem](runs []RunOf[E]) int {
	n := 0
	for _, r := range runs {
		n += r.Len()
	}
	return n
}

// mergeRuns dispatches once per call on the element kind. Float
// elements merge over their same-width integer storage: the run table,
// dst and the message buffers are recast (identical layouts) and only
// the key view stays float, so comparisons keep float order.
func mergeRuns[E element.Elem](dst []E, out [][]E, plan *addr.RemapPlan, proc int, runs []RunOf[E], asc bool) {
	switch any(*new(E)).(type) {
	case uint32:
		mergeRunsOf[E, uint32](dst, out, plan, proc, runs, asc)
	case uint64, element.KV64:
		mergeRunsOf[E, uint64](dst, out, plan, proc, runs, asc)
	case float32:
		mergeRunsOf[uint32, float32](element.Cast[uint32](dst), *element.Recast[[][]uint32](&out), plan, proc, *element.Recast[[]RunOf[uint32]](&runs), asc)
	case float64:
		mergeRunsOf[uint64, float64](element.Cast[uint64](dst), *element.Recast[[][]uint64](&out), plan, proc, *element.Recast[[]RunOf[uint64]](&runs), asc)
	}
}

// minSegment is the shortest pack segment a routed merge emits a
// segment at a time. Below it a segment's set-up costs more than the
// pack walk's per-key step (measured at P=2 on 2^19 u32 keys: segments
// of 4 tie with the walk, segments of 8 beat it by a fifth).
const minSegment = 8

// sink is where one end of a merge emits, in the order that end
// produces elements: seg[i] is the next slot, i moves by d (+1 or -1)
// and left slots remain in seg. A contiguous target is one segment,
// dst itself, and L is 0. A routed one loads the segments of out in
// the order w walks them, L slots each, w always one segment ahead;
// with L = 1 the two-run kernel steps w itself, key by key.
type sink[S element.Elem] struct {
	seg     []S
	i, d    int
	left, L int
	out     [][]S
	w       addr.Walk
}

// room returns the free slots of the current segment, loading the next
// segment when it is full.
func (s *sink[S]) room() int {
	if s.left == 0 {
		s.seg = s.out[s.w.A][s.w.B : int(s.w.B)+s.L]
		s.w = s.w.Next()
		s.i, s.left = 0, s.L
		if s.d < 0 {
			s.i = s.L - 1
		}
	}
	return s.left
}

// piece returns the next c slots, in storage order.
func (s *sink[S]) piece(c int) []S {
	if s.d > 0 {
		return s.seg[s.i : s.i+c]
	}
	return s.seg[s.i-c+1 : s.i+1]
}

// advance accounts for c filled slots.
func (s *sink[S]) advance(c int) {
	s.i += c * s.d
	s.left -= c
}

// sinks returns the targets of a merge's two ends over n elements. The
// front emits ranks 0, 1, ... and the back ranks n-1, n-2, ...; rank e
// goes to position e of an ascending target and n-1-e of a descending
// one, so the front writes forward exactly when asc. A routed target
// is cut into the plan's pack segments when they reach minSegment and
// walked key by key (segments of one) otherwise.
func sinks[S element.Elem](dst []S, out [][]S, plan *addr.RemapPlan, proc, n int, asc bool) (front, back sink[S]) {
	d := 1
	if !asc {
		d = -1
	}
	if plan == nil {
		front = sink[S]{seg: dst, i: 0, d: d, left: n}
		back = sink[S]{seg: dst, i: n - 1, d: -d, left: n}
		if !asc {
			front.i, back.i = n-1, 0
		}
		return front, back
	}
	L, walk := 1, plan.PackWalk
	if seg := plan.PackSegment(); seg >= minSegment {
		L, walk = seg, plan.PackSegWalk
	}
	front = sink[S]{d: d, L: L, out: out, w: walk(proc, !asc)}
	back = sink[S]{d: -d, L: L, out: out, w: walk(proc, asc)}
	return front, back
}

// mergeRunsOf picks the kernel by the number of non-empty runs; empty
// runs take no part in any of them.
func mergeRunsOf[S element.Elem, K element.Ord](dst []S, out [][]S, plan *addr.RemapPlan, proc int, runs []RunOf[S], asc bool) {
	live, first, second := 0, 0, 0
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
	}
	front, back := sinks(dst, out, plan, proc, runsLen(runs), asc)
	switch live {
	case 0:
	case 1:
		head, _, step := runs[first].ends()
		emitRun(&front, runs[first].Keys, head, step, runs[first].Len())
	case 2:
		mergeTwoRuns[S, K](&front, &back, runs[first], runs[second])
	default:
		mergeTree[S, K](&front, runs)
	}
}

// ends returns the storage indices of r's head (smallest key) and tail
// (largest), and the step from head towards tail.
func (r RunOf[E]) ends() (head, tail, step int) {
	st := r.step()
	last := (r.Len() - 1) * st
	if r.Desc {
		return last, 0, -st
	}
	return 0, last, st
}

// mergeTwoRuns is the two-run kernel. Its front end takes the smaller
// head and its back end the larger tail: two chains that do not wait
// on each other. It works in blocks of min(na, nb) steps, na and nb
// counting what is left of each run between its head and its tail:
// their distance divided by the run's step, plus one.
// The k smallest and the k largest elements are disjoint while
// 2k <= na+nb, and neither run can run dry inside a block, so the
// block loops check no counts, and two runs of equal length finish in
// one block. Once a run is exhausted the front emits the other's
// middle.
func mergeTwoRuns[S element.Elem, K element.Ord](f, bk *sink[S], a, b RunOf[S]) {
	ia, ja, sa := a.ends()
	ib, jb, sb := b.ends()
	for m := min((ja-ia)/sa, (jb-ib)/sb) + 1; m > 0; m = min((ja-ia)/sa, (jb-ib)/sb) + 1 {
		if f.L == 1 {
			ia, ib, ja, jb, f.w, bk.w = routeEnds[S, K](f.out, m, a.Keys, b.Keys, ia, ib, ja, jb, sa, sb, f.w, bk.w)
			continue
		}
		for m > 0 {
			c := min(m, f.room(), bk.room())
			ia, ib, ja, jb = mergeEnds[S, K](f.piece(c), bk.piece(c), f.d > 0, a.Keys, b.Keys, ia, ib, ja, jb, sa, sb)
			f.advance(c)
			bk.advance(c)
			m -= c
		}
	}
	if na := (ja-ia)/sa + 1; na > 0 {
		emitRun(f, a.Keys, ia, sa, na)
	} else {
		emitRun(f, b.Keys, ib, sb, (jb-ib)/sb+1)
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

// The block loops below are the two chains of mergeTwoRuns. The front
// compares the heads a[ia] and b[ib] and emits the smaller, a's on a
// tie; the back compares the tails a[ja] and b[jb] and emits the
// larger, b's on a tie, so equal keys keep run order. Each comparison
// sets the flags that both select the emitted element by conditional
// move and, through a 0/1 value, mask the step of the one index that
// moves; no jump depends on a key.
//
// They read the runs through unsafe.Add, with the block's bounds
// checked once by checkBlock, and take the key view of element.KeyOf
// inline. Per-element bounds checks, or the generic call's dictionary
// load, take the registers that keep both chains' indices out of
// memory; spilled, each step waits on a store-forward, and the loop ran
// 60 % slower (u32, 2^19 keys).

// mergeEnds runs len(fo) steps of both chains. With fwd the front fills
// fo forward and the back fills bo backward; otherwise the front fills
// fo backward and the back bo forward. bo is at least as long as fo. It
// returns the moved heads and tails.
func mergeEnds[S element.Elem, K element.Ord](fo, bo []S, fwd bool, a, b []S, ia, ib, ja, jb, sa, sb int) (int, int, int, int) {
	n := len(fo)
	checkBlock(n, a, b, ia, ib, ja, jb, sa, sb)
	pa, pb := unsafe.Pointer(unsafe.SliceData(a)), unsafe.Pointer(unsafe.SliceData(b))
	z := int(unsafe.Sizeof(*new(S)))
	pf, pk, d := unsafe.Pointer(&fo[0]), unsafe.Pointer(&bo[n-1]), z
	if !fwd {
		pf, pk, d = unsafe.Pointer(&fo[n-1]), unsafe.Pointer(&bo[0]), -z
	}
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
		pf, pk = unsafe.Add(pf, d), unsafe.Add(pk, -d)
	}
	return ia, ib, ja, jb
}

// routeEnds is mergeEnds for key-by-key routes, n steps: the front
// emits to out[wf.A][wf.B] and the back to out[wb.A][wb.B], each
// stepping its pack walk after every element. It returns the moved
// heads, tails and walks.
func routeEnds[S element.Elem, K element.Ord](out [][]S, n int, a, b []S, ia, ib, ja, jb, sa, sb int, wf, wb addr.Walk) (int, int, int, int, addr.Walk, addr.Walk) {
	checkBlock(n, a, b, ia, ib, ja, jb, sa, sb)
	pa, pb := unsafe.Pointer(unsafe.SliceData(a)), unsafe.Pointer(unsafe.SliceData(b))
	z := int(unsafe.Sizeof(*new(S)))
	for ; n > 0; n-- {
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
		out[wf.A][wf.B] = x
		out[wb.A][wb.B] = v
		wf, wb = wf.Next(), wb.Next()
	}
	return ia, ib, ja, jb, wf, wb
}

// emitRun emits n elements of one run, from storage index i on by
// step, through s: bulk copies where the run is contiguous (step ±1)
// and moves the same way as the sink, one element at a time otherwise.
func emitRun[S element.Elem](s *sink[S], keys []S, i, step, n int) {
	for n > 0 {
		c := min(n, s.room())
		switch {
		case s.d == step && step > 0:
			copy(s.seg[s.i:s.i+c], keys[i:i+c])
		case s.d == step:
			copy(s.seg[s.i-c+1:s.i+1], keys[i-c+1:i+1])
		default:
			for k, j := i, s.i; k != i+c*step; k, j = k+step, j+s.d {
				s.seg[j] = keys[k]
			}
		}
		s.advance(c)
		i += c * step
		n -= c
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
	c.i += c.step
	c.n--
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

// mergeTree merges three or more runs through a loser tree, emitting
// through s a segment at a time. All its state lives in stack arrays
// for up to maxStackRuns runs, so the steady-state merge allocates
// nothing.
func mergeTree[S element.Elem, K element.Ord](s *sink[S], runs []RunOf[S]) {
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
	for n := runsLen(runs); n > 0; {
		c := min(n, s.room())
		seg, j := s.seg, s.i
		for range c {
			r, i := t.pop()
			seg[j] = runs[r].Keys[i]
			j += s.d
		}
		s.advance(c)
		n -= c
	}
}
