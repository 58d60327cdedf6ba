package addr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// layoutPairs returns interesting (old, new) remap pairs for a given
// dimension, covering blocked<->cyclic and consecutive smart layouts.
func layoutPairs(lgN, lgP int) [][2]*Layout {
	lgn := lgN - lgP
	pairs := [][2]*Layout{
		{Blocked(lgN, lgP), Cyclic(lgN, lgP)},
		{Cyclic(lgN, lgP), Blocked(lgN, lgP)},
	}
	var smarts []*Layout
	for k := 1; k <= lgP; k++ {
		for s := 1; s <= lgn+k; s += 2 {
			smarts = append(smarts, Smart(lgN, lgP, k, s))
		}
	}
	prev := Blocked(lgN, lgP)
	for _, s := range smarts {
		pairs = append(pairs, [2]*Layout{prev, s})
		prev = s
	}
	return pairs
}

func TestRemapPlanRoutesLikeLayouts(t *testing.T) {
	for _, d := range [][2]int{{8, 2}, {8, 4}, {10, 3}, {6, 3}} {
		for _, pair := range layoutPairs(d[0], d[1]) {
			old, new := pair[0], pair[1]
			plan := NewRemapPlan(old, new)
			if got := ChangedBits(old, new); got != plan.Changed {
				t.Fatalf("%s->%s: ChangedBits=%d, plan.Changed=%d", old.Name, new.Name, got, plan.Changed)
			}
			n := old.LocalN()
			for p := 0; p < old.P(); p++ {
				seen := map[[2]int]bool{}
				for l := 0; l < n; l++ {
					abs := old.Abs(p, l)
					wantQ, wantNL := new.Rel(abs)
					q := plan.Dest(p, l)
					if q != wantQ {
						t.Fatalf("%s->%s: Dest(%d,%d)=%d, want %d", old.Name, new.Name, p, l, q, wantQ)
					}
					m := plan.PackOffset(l)
					if m < 0 || m >= plan.MsgLen {
						t.Fatalf("%s->%s: PackOffset(%d)=%d out of range %d", old.Name, new.Name, l, m, plan.MsgLen)
					}
					if seen[[2]int{q, m}] {
						t.Fatalf("%s->%s: duplicate slot (%d,%d)", old.Name, new.Name, q, m)
					}
					seen[[2]int{q, m}] = true
					if nl := plan.UnpackLocal(p, m); nl != wantNL {
						t.Fatalf("%s->%s: UnpackLocal(%d,%d)=%d, want %d", old.Name, new.Name, p, m, nl, wantNL)
					}
				}
			}
		}
	}
}

// Lemma 4: processors exchange data in groups of 2^Changed; each
// processor keeps n/2^Changed elements and sends n/2^Changed to every
// other group member.
func TestRemapPlanLemma4(t *testing.T) {
	for _, d := range [][2]int{{8, 3}, {10, 4}, {6, 3}} {
		for _, pair := range layoutPairs(d[0], d[1]) {
			old, new := pair[0], pair[1]
			plan := NewRemapPlan(old, new)
			n := old.LocalN()
			for p := 0; p < old.P(); p++ {
				counts := map[int]int{}
				for l := 0; l < n; l++ {
					counts[plan.Dest(p, l)]++
				}
				if len(counts) != plan.GroupSize() {
					t.Fatalf("%s->%s proc %d: %d destinations, want group size %d",
						old.Name, new.Name, p, len(counts), plan.GroupSize())
				}
				for q, c := range counts {
					if c != plan.MsgLen {
						t.Fatalf("%s->%s proc %d: sends %d to %d, want %d", old.Name, new.Name, p, c, q, plan.MsgLen)
					}
				}
				dests := plan.Dests(p)
				if len(dests) != plan.GroupSize() {
					t.Fatalf("Dests length %d, want %d", len(dests), plan.GroupSize())
				}
				for _, q := range dests {
					if counts[q] == 0 {
						t.Fatalf("%s->%s proc %d: Dests lists %d which receives nothing", old.Name, new.Name, p, q)
					}
				}
				if plan.SendVolume() != n-plan.MsgLen {
					t.Fatalf("SendVolume=%d, want %d", plan.SendVolume(), n-plan.MsgLen)
				}
				if plan.KeepCount() != plan.MsgLen {
					t.Fatalf("KeepCount=%d, want %d", plan.KeepCount(), plan.MsgLen)
				}
			}
		}
	}
}

// For smart-remap sequences the paper additionally claims group members
// are consecutive processors starting at a multiple of the group size
// (Lemma 4). Verify it for consecutive smart layouts.
func TestSmartGroupsAreConsecutive(t *testing.T) {
	lgN, lgP := 12, 4
	lgn := lgN - lgP
	prev := Blocked(lgN, lgP)
	// Follow the natural smart-remap progression: remap at the first
	// step of each communication phase. Here we take the canonical
	// HeadRemap positions: each remap executes lg n steps.
	k, s := 1, lgn+1
	for k <= lgP {
		cur := Smart(lgN, lgP, k, s)
		plan := NewRemapPlan(prev, cur)
		for p := 0; p < 1<<lgP; p++ {
			dests := plan.Dests(p)
			min, max := dests[0], dests[0]
			for _, q := range dests {
				if q < min {
					min = q
				}
				if q > max {
					max = q
				}
			}
			gs := plan.GroupSize()
			if max-min+1 != gs || min%gs != 0 {
				t.Fatalf("remap %s->%s proc %d: group %v not consecutive aligned", prev.Name, cur.Name, p, dests)
			}
			if min != gs*(p/gs) {
				t.Fatalf("group start %d, Lemma 4 wants %d", min, gs*(p/gs))
			}
		}
		prev = cur
		// Advance lg n steps through the network (the smart schedule).
		if s > lgn {
			s -= lgn
		} else {
			k++
			s = s + k - lgn // NextStep via t = s+k+1 in 1-indexed terms
			s = 0
			break
		}
		if s <= 0 {
			break
		}
	}
}

func TestApplyMatchesPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, d := range [][2]int{{8, 3}, {10, 2}} {
		for _, pair := range layoutPairs(d[0], d[1]) {
			old, new := pair[0], pair[1]
			P, n := old.P(), old.LocalN()
			data := make([][]uint32, P)
			for p := range data {
				data[p] = make([]uint32, n)
				for l := range data[p] {
					data[p][l] = rng.Uint32()
				}
			}
			want := Apply(old, new, data)

			// Plan-driven: pack, transfer, unpack.
			plan := NewRemapPlan(old, new)
			msgs := map[[2]int][]uint32{} // (src,dst) -> message
			for p := 0; p < P; p++ {
				for _, q := range plan.Dests(p) {
					msgs[[2]int{p, q}] = make([]uint32, plan.MsgLen)
				}
				for l := 0; l < n; l++ {
					q := plan.Dest(p, l)
					msgs[[2]int{p, q}][plan.PackOffset(l)] = data[p][l]
				}
			}
			got := make([][]uint32, P)
			for q := range got {
				got[q] = make([]uint32, n)
			}
			for key, msg := range msgs {
				src, dst := key[0], key[1]
				for m, v := range msg {
					got[dst][plan.UnpackLocal(src, m)] = v
				}
			}
			for p := 0; p < P; p++ {
				for l := 0; l < n; l++ {
					if got[p][l] != want[p][l] {
						t.Fatalf("%s->%s: plan-driven remap differs at (%d,%d)", old.Name, new.Name, p, l)
					}
				}
			}
		}
	}
}

func TestApplyPanicsOnShortData(t *testing.T) {
	old, new := Blocked(4, 1), Cyclic(4, 1)
	data := [][]uint32{make([]uint32, 8), make([]uint32, 7)}
	defer func() {
		if recover() == nil {
			t.Fatal("Apply should panic on wrong per-processor length")
		}
	}()
	Apply(old, new, data)
}

func TestNewRemapPlanPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRemapPlan should panic on dimension mismatch")
		}
	}()
	NewRemapPlan(Blocked(8, 2), Blocked(8, 3))
}

// Identity remap: zero changed bits, everything kept.
func TestIdentityRemap(t *testing.T) {
	l := Blocked(8, 3)
	plan := NewRemapPlan(l, Blocked(8, 3))
	if plan.Changed != 0 || plan.GroupSize() != 1 || plan.SendVolume() != 0 {
		t.Fatalf("identity remap: changed=%d group=%d send=%d", plan.Changed, plan.GroupSize(), plan.SendVolume())
	}
	for l2 := 0; l2 < l.LocalN(); l2++ {
		if plan.PackOffset(l2) != l2 {
			t.Fatalf("identity pack offset should be identity")
		}
	}
}

// Property: the pack offsets of elements bound for one destination are
// exactly 0..MsgLen-1 (the long message is dense).
func TestQuickPackOffsetsDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lgN := 4 + rng.Intn(6)
		lgP := 1 + rng.Intn(lgN-1)
		pairs := layoutPairs(lgN, lgP)
		pair := pairs[rng.Intn(len(pairs))]
		plan := NewRemapPlan(pair[0], pair[1])
		p := rng.Intn(pair[0].P())
		used := map[int]map[int]bool{}
		for l := 0; l < pair[0].LocalN(); l++ {
			q := plan.Dest(p, l)
			if used[q] == nil {
				used[q] = map[int]bool{}
			}
			m := plan.PackOffset(l)
			if used[q][m] {
				return false
			}
			used[q][m] = true
		}
		for _, offs := range used {
			if len(offs) != plan.MsgLen {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// checkWalks steps proc's two walks under plan over their whole
// domains and compares them, at every input whose bits under mask are
// all clear or all set (every input for mask 0), with the per-element
// Dest/PackOffset definitions and the layouts' own inverse.
func checkWalks(t *testing.T, plan *RemapPlan, proc, mask int) {
	t.Helper()
	old, new := plan.Old, plan.New
	n := old.LocalN()
	keep := func(x int) bool { return x&mask == 0 || x&mask == mask }
	for _, desc := range []bool{false, true} {
		w := plan.PackWalk(proc, desc)
		for e := 0; e < n; e++ {
			l := e
			if desc {
				l = n - 1 - e
			}
			if keep(l) && (int(w.A) != plan.Dest(proc, l) || int(w.B) != plan.PackOffset(l)) {
				t.Fatalf("%s->%s: PackWalk(%d, desc=%v) at %d = (%d,%d), want (%d,%d)", old.Name, new.Name,
					proc, desc, l, w.A, w.B, plan.Dest(proc, l), plan.PackOffset(l))
			}
			w = w.Next()
		}
	}
	senders := plan.AppendSenders(nil, proc)
	if len(senders) != plan.GroupSize() {
		t.Fatalf("%s->%s: AppendSenders(%d) has %d entries, want %d", old.Name, new.Name, proc, len(senders), plan.GroupSize())
	}
	w := plan.GatherWalk(proc)
	for i := 0; i < n; i++ {
		if keep(i) {
			wantSrc, wantSL := old.Rel(new.Abs(proc, i))
			if src, sl := senders[w.A], int(w.B); src != wantSrc || sl != wantSL {
				t.Fatalf("%s->%s: GatherWalk(%d) at %d = proc %d local %d, want proc %d local %d",
					old.Name, new.Name, proc, i, src, sl, wantSrc, wantSL)
			}
		}
		w = w.Next()
	}
}

// The walks (the hot paths of every remap) must agree with the
// per-element definitions at every address, ascending and descending.
func TestWalksMatchScalarPath(t *testing.T) {
	for _, d := range [][2]int{{8, 2}, {8, 3}, {8, 4}, {10, 3}, {10, 4}, {6, 3}} {
		for _, pair := range layoutPairs(d[0], d[1]) {
			plan := NewRemapPlan(pair[0], pair[1])
			for p := 0; p < pair[0].P(); p++ {
				checkWalks(t, plan, p, 0)
			}
		}
	}
}

// TestWalksMatchScalarPathLarge samples the walks at lg n = 23, past
// any size a table-driven router would have capped: stepping is the
// only per-address cost, so whole domains are walked and a sample of
// addresses checked.
func TestWalksMatchScalarPathLarge(t *testing.T) {
	const lgn = 23
	for lgP := 1; lgP <= 3; lgP++ {
		pairs := layoutPairs(lgn+lgP, lgP)
		for _, pair := range [][2]*Layout{pairs[0], pairs[len(pairs)-1]} {
			checkWalks(t, NewRemapPlan(pair[0], pair[1]), pair[0].P()-1, 1<<10-1)
		}
	}
}

// TestPackSegmentsMatchScalarPath checks PackSegment against the
// per-address definitions: inside a segment every address goes to its
// predecessor's destination at the next pack offset, and the segment
// is the longest power of two with that property.
func TestPackSegmentsMatchScalarPath(t *testing.T) {
	var plans []*RemapPlan
	for _, d := range [][2]int{{8, 2}, {8, 3}, {10, 1}, {10, 3}, {6, 3}} {
		for _, pair := range layoutPairs(d[0], d[1]) {
			plans = append(plans, NewRemapPlan(pair[0], pair[1]))
		}
	}
	rng := rand.New(rand.NewSource(5))
	for range 40 {
		lgP := rng.Intn(3)
		lgN := lgP + rng.Intn(7)
		random := func() *Layout {
			perm := rng.Perm(lgN)
			return &Layout{LgN: lgN, LgP: lgP, ProcBits: perm[:lgP], LocalBits: perm[lgP:], Name: "random"}
		}
		plans = append(plans, NewRemapPlan(random(), random()))
	}
	lens := map[int]bool{}
	for _, plan := range plans {
		n, L := plan.Old.LocalN(), plan.PackSegment()
		lens[L] = true
		if L < 1 || L > n || n%L != 0 || L&(L-1) != 0 {
			t.Fatalf("%s->%s: PackSegment %d for %d local keys", plan.Old.Name, plan.New.Name, L, n)
		}
		for p := 0; p < plan.Old.P(); p++ {
			// joined reports whether address l continues l-1's segment.
			joined := func(l int) bool {
				return plan.Dest(p, l) == plan.Dest(p, l-1) && plan.PackOffset(l) == plan.PackOffset(l-1)+1
			}
			longer := 2*L <= n
			for l := 1; l < n; l++ {
				if l%L != 0 && !joined(l) {
					t.Fatalf("%s->%s proc %d: address %d splits a segment of %d", plan.Old.Name, plan.New.Name, p, l, L)
				}
				if l%(2*L) == L && !joined(l) {
					longer = false
				}
			}
			if longer {
				t.Fatalf("%s->%s proc %d: segments of %d also hold, PackSegment says %d", plan.Old.Name, plan.New.Name, p, 2*L, L)
			}
		}
	}
	if len(lens) < 4 {
		t.Fatalf("only segment lengths %v covered", lens)
	}
}

// TestGatherWalkInvertsPlan proves the inverse (pull) walk
// reproduces exactly the placement of the forward (push) path: for
// every receiving processor q and new local address i, the element
// gathered from AppendSenders(q)[A] at old local B is the element the
// pack → exchange → unpack pipeline (Apply) would have delivered there.
func TestGatherWalkInvertsPlan(t *testing.T) {
	for _, d := range [][2]int{{8, 2}, {8, 4}, {10, 3}, {6, 3}} {
		for _, pair := range layoutPairs(d[0], d[1]) {
			old, new := pair[0], pair[1]
			plan := NewRemapPlan(old, new)
			n := old.LocalN()
			P := old.P()

			data := make([][]uint32, P)
			rng := rand.New(rand.NewSource(7))
			for p := range data {
				data[p] = make([]uint32, n)
				for l := range data[p] {
					data[p][l] = rng.Uint32()
				}
			}
			want := Apply(old, new, data)

			for q := 0; q < P; q++ {
				senders := plan.AppendSenders(nil, q)
				w := plan.GatherWalk(q)
				for i := 0; i < n; i++ {
					if got := data[senders[w.A]][w.B]; got != want[q][i] {
						t.Fatalf("%s->%s: gathered value %d != Apply value %d at (%d,%d)",
							old.Name, new.Name, got, want[q][i], q, i)
					}
					w = w.Next()
				}
			}
		}
	}
}
