package localsort

import (
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

// RunOf is one sorted input run for MergeRuns. Desc marks runs stored
// in descending order (they are consumed from the tail), which is how
// the long messages from the second half of a communication group
// arrive in §4.3's unpack-fused merge.
type RunOf[E element.Elem] struct {
	Keys []E
	Desc bool
}

// Run is a uint32 run, the element type of the paper's experiments.
type Run = RunOf[uint32]

// cursor walks a run in ascending key order: i is the storage index of
// the head, step is +1 for an ascending run and -1 for a Desc run read
// from its tail, and n counts the elements left.
type cursor struct{ i, step, n int }

// to returns c advanced to storage index i.
func (c cursor) to(i int) cursor {
	return cursor{i, c.step, c.n - (i-c.i)*c.step}
}

func (r RunOf[E]) cursor() cursor {
	if r.Desc {
		return cursor{len(r.Keys) - 1, -1, len(r.Keys)}
	}
	return cursor{0, 1, len(r.Keys)}
}

// route is the routed emission target: the next element goes to
// out[w.A][w.B], after which the walk steps to the next local index. A
// nil *route selects the contiguous target.
type route[E element.Elem] struct {
	out [][]E
	w   addr.Walk
}

// MergeTwo merges the ascending-sorted slices a and b into dst (whose
// length must be len(a)+len(b)) in the direction given by asc. It runs
// the two-run kernel MergeRuns uses; a descending result is reversed
// afterwards.
func MergeTwo[E element.Elem](dst, a, b []E, asc bool) {
	if len(dst) != len(a)+len(b) {
		panic("localsort: MergeTwo length mismatch")
	}
	runs := [2]RunOf[E]{{Keys: a}, {Keys: b}}
	mergeRuns(dst, nil, runs[:])
	if !asc {
		Reverse(dst)
	}
}

// MergeRuns merges the sorted runs into dst ascending: a branchless
// two-pointer loop for two non-empty runs, a loser tree — O(total ·
// log p) comparisons — for more. Equal keys come out in run order.
// This is the p-way merge the paper fuses with unpacking so the
// separate unpack pass disappears (§4.3).
func MergeRuns[E element.Elem](dst []E, runs []RunOf[E]) {
	if len(dst) != runsLen(runs) {
		panic("localsort: MergeRuns length mismatch")
	}
	mergeRuns(dst, nil, runs)
}

// MergeRunsRouted is MergeRuns emitting through processor proc's pack
// routing under plan instead of into a contiguous array: the element of
// ascending rank e belongs at local index l = e of an ascending region
// (asc) or l = n-1-e of a descending one, and is stored in
// out[plan.Dest(proc, l)] at plan.PackOffset(l). Packing for the next
// remap is then the merge's own emission pass — the thesis's "single
// local computation step" (Ch. 7). The runs must hold the plan's n
// local keys in total.
func MergeRunsRouted[E element.Elem](out [][]E, plan *addr.RemapPlan, proc int, runs []RunOf[E], asc bool) {
	if runsLen(runs) != plan.Old.LocalN() {
		panic("localsort: MergeRunsRouted length mismatch")
	}
	rt := route[E]{out: out, w: plan.PackWalk(proc, !asc)}
	mergeRuns(nil, &rt, runs)
}

func runsLen[E element.Elem](runs []RunOf[E]) int {
	n := 0
	for _, r := range runs {
		n += len(r.Keys)
	}
	return n
}

// mergeRuns dispatches once per call on the element kind. Float
// elements merge over their same-width integer storage: the run table,
// dst and the routing target are recast (identical layouts) and only
// the key view stays float, so comparisons keep float order.
func mergeRuns[E element.Elem](dst []E, rt *route[E], runs []RunOf[E]) {
	switch any(*new(E)).(type) {
	case uint32:
		mergeRunsOf[E, uint32](dst, rt, runs)
	case uint64, element.KV64:
		mergeRunsOf[E, uint64](dst, rt, runs)
	case float32:
		mergeRunsOf[uint32, float32](element.Cast[uint32](dst), element.Recast[route[uint32]](rt), *element.Recast[[]RunOf[uint32]](&runs))
	case float64:
		mergeRunsOf[uint64, float64](element.Cast[uint64](dst), element.Recast[route[uint64]](rt), *element.Recast[[]RunOf[uint64]](&runs))
	}
}

// mergeRunsOf picks the kernel by the number of non-empty runs; empty
// runs take no part in any of them.
func mergeRunsOf[S element.Elem, K element.Ord](dst []S, rt *route[S], runs []RunOf[S]) {
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
	switch live {
	case 0:
	case 1:
		emitRun(dst, rt, runs[first].Keys, runs[first].cursor())
	case 2:
		mergeTwoRuns[S, K](dst, rt, runs[first], runs[second])
	default:
		mergeTree[S, K](dst, rt, runs)
	}
}

// mergeTwoRuns is the two-run kernel. It works in blocks of min(na, nb)
// elements — neither run can run dry inside one — so the block loops
// track no counts. Once a run is exhausted the other's remainder goes
// out through emitRun.
func mergeTwoRuns[S element.Elem, K element.Ord](dst []S, rt *route[S], a, b RunOf[S]) {
	ca, cb := a.cursor(), b.cursor()
	for m := min(ca.n, cb.n); m > 0; m = min(ca.n, cb.n) {
		if rt == nil {
			ca, cb = mergeBlock[S, K](dst[:m], a.Keys, b.Keys, ca, cb)
			dst = dst[m:]
		} else {
			ca, cb = routeBlock[S, K](rt, m, a.Keys, b.Keys, ca, cb)
		}
	}
	if ca.n > 0 {
		emitRun(dst, rt, a.Keys, ca)
	} else {
		emitRun(dst, rt, b.Keys, cb)
	}
}

// mergeBlock fills d from the heads of a and b. The head comparison
// yields a 0/1 flag t that selects, without a jump, both the element
// stored and the cursor that advances; ties take a's head, so equal
// keys keep run order. It returns the advanced cursors.
func mergeBlock[S element.Elem, K element.Ord](d, a, b []S, ca, cb cursor) (cursor, cursor) {
	ia, sa, ib, sb := ca.i, ca.step, cb.i, cb.step
	for j := range d {
		va, vb := a[ia], b[ib]
		t := 0
		if element.KeyOf[K](&b[ib]) < element.KeyOf[K](&a[ia]) {
			t = 1
		}
		if t != 0 {
			va = vb
		}
		d[j] = va
		ia += sa &^ -t
		ib += sb & -t
	}
	return ca.to(ia), cb.to(ib)
}

// routeBlock is mergeBlock emitting m elements through the routing
// target instead of into a contiguous block.
func routeBlock[S element.Elem, K element.Ord](rt *route[S], m int, a, b []S, ca, cb cursor) (cursor, cursor) {
	ia, sa, ib, sb := ca.i, ca.step, cb.i, cb.step
	out, w := rt.out, rt.w
	for ; m > 0; m-- {
		va, vb := a[ia], b[ib]
		t := 0
		if element.KeyOf[K](&b[ib]) < element.KeyOf[K](&a[ia]) {
			t = 1
		}
		if t != 0 {
			va = vb
		}
		out[w.A][w.B] = va
		w = w.Next()
		ia += sa &^ -t
		ib += sb & -t
	}
	rt.w = w
	return ca.to(ia), cb.to(ib)
}

// emitRun emits the rest of one run, c's elements in ascending key
// order: a bulk copy for an ascending run into dst, a loop otherwise.
func emitRun[S element.Elem](dst []S, rt *route[S], keys []S, c cursor) {
	if rt == nil {
		if c.step > 0 {
			copy(dst, keys[c.i:c.i+c.n])
			return
		}
		for k := range dst[:c.n] {
			dst[k] = keys[c.i-k]
		}
		return
	}
	out, w := rt.out, rt.w
	for i, j := c.i, 0; j < c.n; i, j = i+c.step, j+1 {
		out[w.A][w.B] = keys[i]
		w = w.Next()
	}
	rt.w = w
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

// mergeTree merges three or more runs through a loser tree. All its
// state lives in stack arrays for up to maxStackRuns runs, so the
// steady-state merge allocates nothing.
func mergeTree[S element.Elem, K element.Ord](dst []S, rt *route[S], runs []RunOf[S]) {
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
	if rt == nil {
		for k := range dst {
			r, i := t.pop()
			dst[k] = runs[r].Keys[i]
		}
		return
	}
	out, w := rt.out, rt.w
	for range runsLen(runs) {
		r, i := t.pop()
		out[w.A][w.B] = runs[r].Keys[i]
		w = w.Next()
	}
}
