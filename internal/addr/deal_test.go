package addr_test

import (
	"fmt"
	"testing"

	"parbitonic/internal/addr"
	"parbitonic/internal/schedule"
)

// fullSortShaped reports whether sched is FullSort's usual-regime
// shape: an inside remap, then crossings, then the last remap.
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
	return len(sched) > 0
}

// TestFullSortPlansAreDeals checks that every remap of a FullSort-shaped
// schedule is a segment deal: Deal's formula gives each old local
// address the destination and pack offset of Dest and PackOffset, on
// every processor, and the pack walk in both directions visits what
// the formula names at l = i (ascending) or n-1-i (descending), and
// Member names each receiver's place in its senders' groups. Round 0
// is the s=0, c=1 deal that FullSort's first merge reads in place.
func TestFullSortPlansAreDeals(t *testing.T) {
	for _, lgN := range []int{8, 12, 16, 20} {
		for lgP := 1; lgP <= 5; lgP++ {
			sched := schedule.New(lgN, lgP, schedule.Head)
			if !fullSortShaped(sched) {
				continue
			}
			for ri, r := range sched {
				t.Run(fmt.Sprintf("lgN=%d/lgP=%d/remap=%d", lgN, lgP, ri), func(t *testing.T) {
					checkDeal(t, r.Plan, ri == 0)
				})
			}
		}
	}
}

func checkDeal(t *testing.T, plan *addr.RemapPlan, round0 bool) {
	s, c, ok := plan.Deal()
	if !ok {
		t.Fatalf("%s plan is not a deal", plan.New)
	}
	if round0 && (s != 0 || c != 1) {
		t.Fatalf("round-0 plan deals with s=%d, c=%d, want 0 and 1", s, c)
	}
	if plan.PackSegment() != 1<<s || plan.GroupSize() != 1<<c {
		t.Fatalf("deal s=%d c=%d disagrees with segment %d, group %d", s, c, plan.PackSegment(), plan.GroupSize())
	}
	n := plan.Old.LocalN()
	low := 1<<s - 1
	member := func(l int) int { return l >> s & (1<<c - 1) }
	offset := func(l int) int { return l>>(s+c)<<s | l&low }
	for proc := 0; proc < plan.Old.P(); proc++ {
		for _, src := range plan.AppendSenders(nil, proc) {
			if g := plan.Member(proc); plan.Dests(src)[g] != proc {
				t.Fatalf("proc %d: Member %d, but sender %d's group is %v", proc, g, src, plan.Dests(src))
			}
		}
		dests := plan.Dests(proc)
		for l := 0; l < n; l++ {
			if d, o := plan.Dest(proc, l), plan.PackOffset(l); d != dests[member(l)] || o != offset(l) {
				t.Fatalf("proc %d address %d: Dest/PackOffset %d/%d, deal %d/%d", proc, l, d, o, dests[member(l)], offset(l))
			}
		}
		for _, desc := range []bool{false, true} {
			flip := 0
			if desc {
				flip = n - 1
			}
			w := plan.PackWalk(proc, desc)
			for i := 0; i < n; i++ {
				l := i ^ flip
				if int(w.A) != dests[member(l)] || int(w.B) != offset(l) {
					t.Fatalf("proc %d desc=%v rank %d: walk %d/%d, deal %d/%d", proc, desc, i, w.A, w.B, dests[member(l)], offset(l))
				}
				w = w.Next()
			}
		}
	}
}

// TestDealRejectsNonDeal: at lgN=12, lgP=4 the head schedule's fifth
// remap is an inside remap over a group of 16 whose destination bits
// are not the address bits above one pack segment.
func TestDealRejectsNonDeal(t *testing.T) {
	sched := schedule.New(12, 4, schedule.Head)
	r := sched[4]
	if r.Kind != schedule.Inside || r.Plan.GroupSize() != 16 {
		t.Fatalf("remap 4 is %v over a group of %d, want inside over 16", r.Kind, r.Plan.GroupSize())
	}
	if s, c, ok := r.Plan.Deal(); ok {
		t.Fatalf("remap 4 reported a deal (s=%d, c=%d)", s, c)
	}
}
