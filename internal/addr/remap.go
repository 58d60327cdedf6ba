package addr

import (
	"fmt"
	"math/bits"
)

// bitMove describes moving bit `from` of a source word to bit `to` of a
// destination word.
type bitMove struct{ from, to int }

func gather(word int, moves []bitMove) int {
	out := 0
	for _, m := range moves {
		out |= (word >> uint(m.from) & 1) << uint(m.to)
	}
	return out
}

// RemapPlan precomputes everything needed to remap data from layout Old
// to layout New with long messages: destination processors, pack offsets
// (the "pack mask" of Figure 3.18) and unpack positions (the "unpack
// mask" of Figure 3.19). Because all layouts are bit permutations the
// plan is a set of bit moves independent of the data, and every routing
// over consecutive addresses is a Walk stepped by XOR deltas.
type RemapPlan struct {
	Old, New *Layout // source and destination layouts

	// Changed is N_BitsChanged of Lemma 3: the number of absolute-address
	// bits that are local under Old but select the processor under New.
	Changed int

	// MsgLen is the number of elements each processor sends to (and
	// receives from) every other member of its communication group:
	// n / 2^Changed (Lemma 4).
	MsgLen int

	destFromP []bitMove // dest proc bits sourced from the sender's proc number
	destFromL []bitMove // dest proc bits sourced from the sender's local address
	offFromL  []bitMove // message offset bits sourced from the sender's local address
	nlFromM   []bitMove // new local bits sourced from the message offset
	nlFromP   []bitMove // new local bits sourced from the sender's proc number

	// XOR deltas of the walks (see Walk): (dest, offset) over old local
	// addresses, and (sender group, source local) over new local
	// addresses. They depend on the bit moves only, so one set serves
	// every processor.
	packDelta, gatherDelta [32][2]int32

	// segLg is lg of PackSegment.
	segLg int
}

// Walk enumerates a bit routing over consecutive inputs without a
// table. A and B are the routing's two outputs at the current input;
// Next steps to the next input. A bit routing f is linear over XOR, so
// f(x) ^ f(x+1) = f(x ^ (x+1)), and x ^ (x+1) is the mask of the
// t+1 low bits where t = TrailingZeros(^x): one 32-entry delta table
// per output covers every step. A descending walk over a power-of-two
// region starts at n-1 and steps by the same deltas, since
// n-1-e = (n-1) ^ e.
type Walk struct {
	A, B  int32         // the routing's outputs at the current input
	e     uint32        // steps taken
	delta *[32][2]int32 // delta[t]: the outputs' change across a t-trailing-ones step
}

// Next returns the walk advanced by one input. It is a value method so
// the walk stays in registers in the scatter loops that step it.
func (w Walk) Next() Walk {
	d := &w.delta[bits.TrailingZeros32(^w.e)&31]
	w.A ^= d[0]
	w.B ^= d[1]
	w.e++
	return w
}

// fillDeltas sets d[t] to the outputs of the routings a and b at the
// input whose t+1 low bits are set.
func fillDeltas(d *[32][2]int32, a, b []bitMove) {
	for t := range d {
		x := 1<<uint(t+1) - 1
		d[t] = [2]int32{int32(gather(x, a)), int32(gather(x, b))}
	}
}

// PackWalk walks processor proc's old local addresses, from 0 upwards,
// or from n-1 downwards when desc: A is the destination processor of
// the element at the current address and B its pack offset, exactly
// Dest and PackOffset.
func (p *RemapPlan) PackWalk(proc int, desc bool) Walk {
	l := 0
	if desc {
		l = p.Old.LocalN() - 1
	}
	return Walk{A: int32(p.Dest(proc, l)), B: int32(p.PackOffset(l)), delta: &p.packDelta}
}

// PackSegment returns the length 2^j of the plan's pack segments: each
// aligned block of 2^j consecutive old local addresses shares one
// destination and takes consecutive pack offsets, so it leaves as one
// contiguous slice of its message. j counts the pack walk's first
// steps that keep the destination and add one to the offset.
func (p *RemapPlan) PackSegment() int { return 1 << uint(p.segLg) }

// Deal reports whether the plan packs as a segment deal, and its shape:
// old local address l goes to group member (l>>segLg) & (2^fanLg-1), in
// Dests order, at pack offset ((l >> (segLg+fanLg)) << segLg) |
// (l & (2^segLg-1)). That holds when the destination's local bits are
// the fanLg address bits above the pack segment, in order, and the
// offset keeps every other address bit in order. A deal needs no walk:
// a contiguous run of addresses lands in fixed strides of its messages.
// Every FullSort remap is a deal, so a receiver reads its message in
// place as 2^segLg-key segments at stride 2^(segLg+fanLg) of the
// sender's array (localsort.DealtRun).
func (p *RemapPlan) Deal() (segLg, fanLg int, ok bool) {
	for i, m := range p.destFromL {
		if m.from != p.segLg+i {
			return 0, 0, false
		}
	}
	for j := 1; j < len(p.offFromL); j++ {
		if p.offFromL[j].from < p.offFromL[j-1].from {
			return 0, 0, false
		}
	}
	return p.segLg, p.Changed, true
}

// GatherWalk is the inverse routing, for remaps that pull data instead
// of pushing it (spmd's Remap on both backends). It walks processor
// proc's new local addresses i from 0 upwards: the element at i comes
// from processor AppendSenders(nil, proc)[A], at old local address B.
// It inverts the pack and unpack masks exactly, so a gather remap
// places every element where pack → exchange → unpack would.
func (p *RemapPlan) GatherWalk(proc int) Walk {
	// The old local bits that routed the element to proc in the first
	// place (the inverse of the destination mask) are fixed per
	// receiver; the deltas cover the bits the new local address moves.
	base := 0
	for _, mv := range p.destFromL {
		base |= (proc >> uint(mv.to) & 1) << uint(mv.from)
	}
	return Walk{B: int32(base), delta: &p.gatherDelta}
}

// Member returns proc's index in the Dests order of every group that
// sends to it: the bits of proc that a destination takes from the
// sender's local address, in destination-bit order.
func (p *RemapPlan) Member(proc int) int {
	g := 0
	for i, m := range p.destFromL {
		g |= (proc >> uint(m.to) & 1) << uint(i)
	}
	return g
}

// AppendSenders appends the processors that send data to proc under
// the plan (including proc itself when it keeps data) to dst, indexed
// by GatherWalk's A output, and returns it.
func (p *RemapPlan) AppendSenders(dst []int, proc int) []int {
	base := 0
	for _, mv := range p.destFromP {
		base |= (proc >> uint(mv.to) & 1) << uint(mv.from)
	}
	for g := 0; g < p.GroupSize(); g++ {
		s := base
		for j, mv := range p.nlFromP {
			s |= (g >> uint(j) & 1) << uint(mv.from)
		}
		dst = append(dst, s)
	}
	return dst
}

// NewRemapPlan builds the plan for remapping from old to new. The two
// layouts must have identical dimensions.
func NewRemapPlan(old, new *Layout) *RemapPlan {
	if old.LgN != new.LgN || old.LgP != new.LgP {
		panic(fmt.Sprintf("addr: remap between incompatible layouts (%d/%d vs %d/%d)",
			old.LgN, old.LgP, new.LgN, new.LgP))
	}
	p := &RemapPlan{Old: old, New: new}

	// Where does each absolute bit live under the old layout?
	type src struct {
		inProc bool
		pos    int
	}
	oldSrc := make([]src, old.LgN)
	for i, b := range old.ProcBits {
		oldSrc[b] = src{true, i}
	}
	for i, b := range old.LocalBits {
		oldSrc[b] = src{false, i}
	}

	for i, b := range new.ProcBits {
		s := oldSrc[b]
		if s.inProc {
			p.destFromP = append(p.destFromP, bitMove{s.pos, i})
		} else {
			p.destFromL = append(p.destFromL, bitMove{s.pos, i})
			p.Changed++
		}
	}
	// New local bits: those sourced from the sender's local address form
	// the message offset (in new-local significance order); those sourced
	// from the sender's processor number are fixed per sender and are
	// reconstructed by the receiver during unpacking.
	off := 0
	for i, b := range new.LocalBits {
		s := oldSrc[b]
		if s.inProc {
			p.nlFromP = append(p.nlFromP, bitMove{s.pos, i})
		} else {
			p.offFromL = append(p.offFromL, bitMove{s.pos, off})
			p.nlFromM = append(p.nlFromM, bitMove{off, i})
			off++
		}
	}
	p.MsgLen = 1 << uint(off)
	if p.MsgLen != old.LocalN()>>uint(p.Changed) {
		panic("addr: remap plan internal inconsistency")
	}

	fillDeltas(&p.packDelta, p.destFromL, p.offFromL)
	j := 0
	for j < old.LgLocal() && p.packDelta[j] == [2]int32{0, 1<<uint(j+1) - 1} {
		j++
	}
	p.segLg = j
	// The gather routing inverts the unpack mask: new local bits sourced
	// from the sender's processor number select the sender within the
	// group (in nlFromP order, matching AppendSenders), and those sourced
	// from the message offset go back through the pack mask — nlFromM
	// and offFromL share the offset-bit enumeration order.
	var group, local []bitMove
	for j, mv := range p.nlFromP {
		group = append(group, bitMove{mv.to, j})
	}
	for j, mv := range p.nlFromM {
		local = append(local, bitMove{mv.to, p.offFromL[j].from})
	}
	fillDeltas(&p.gatherDelta, group, local)
	return p
}

// Dest returns the destination processor for the element held at local
// address l on processor proc under the old layout.
func (p *RemapPlan) Dest(proc, l int) int {
	return gather(proc, p.destFromP) | gather(l, p.destFromL)
}

// PackOffset returns the element's position inside the long message to
// its destination processor. Elements with the same destination receive
// distinct offsets in 0..MsgLen-1, ordered by their new local address —
// exactly the pack-mask ordering of Figure 3.20.
func (p *RemapPlan) PackOffset(l int) int {
	return gather(l, p.offFromL)
}

// UnpackLocal returns, on the receiving processor, the local address
// under the new layout for the element at position m of the message
// received from srcProc (the unpack mask of Figure 3.21).
func (p *RemapPlan) UnpackLocal(srcProc, m int) int {
	return gather(m, p.nlFromM) | gather(srcProc, p.nlFromP)
}

// GroupSize returns the number of processors in each communication
// group: 2^Changed (Lemma 4).
func (p *RemapPlan) GroupSize() int { return 1 << uint(p.Changed) }

// Dests returns every destination processor for data held by proc,
// including proc itself if it keeps data, in ascending offset order of
// the varying destination bits.
func (p *RemapPlan) Dests(proc int) []int {
	dst := make([]int, 0, p.GroupSize())
	fixed := gather(proc, p.destFromP)
	for g := 0; g < p.GroupSize(); g++ {
		d := fixed
		for i, m := range p.destFromL {
			d |= (g >> uint(i) & 1) << uint(m.to)
		}
		dst = append(dst, d)
	}
	return dst
}

// KeepCount returns how many of its n elements a processor keeps across
// the remap: n / 2^Changed (Lemma 4). Note a processor keeps exactly
// MsgLen elements only if it is a member of its own destination group;
// a processor outside its group keeps nothing (see SendCounts for the
// exact per-processor accounting).
func (p *RemapPlan) KeepCount() int { return p.MsgLen }

// SendVolume returns the number of elements a processor sends to other
// processors during the remap, assuming it is a member of its own
// destination group: n - n / 2^Changed.
func (p *RemapPlan) SendVolume() int {
	return p.Old.LocalN() - p.MsgLen
}

// SendCounts returns the exact packed-path communication counters for
// proc: how many elements it ships to other processors and in how many
// messages. These equal SendVolume and GroupSize-1 only when proc is a
// member of its own destination group; a processor outside its group
// keeps nothing and sends all LocalN elements in GroupSize messages.
// Some remaps of the smart schedule in the tall-P regime produce such
// processors, so a gather remap that reports the packed pipeline's
// counters must use this, not SendVolume.
func (p *RemapPlan) SendCounts(proc int) (vol, msgs int) {
	vary := 0
	for _, m := range p.destFromL {
		vary |= 1 << uint(m.to)
	}
	vol, msgs = p.Old.LocalN(), p.GroupSize()
	if proc&^vary == gather(proc, p.destFromP) {
		vol -= p.MsgLen
		msgs--
	}
	return vol, msgs
}

// ChangedBits computes N_BitsChanged of Lemma 3 for a remap from old to
// new without building a full plan: the number of absolute-address bits
// that are local under old and select the processor under new.
func ChangedBits(old, new *Layout) int {
	n := 0
	for _, b := range new.ProcBits {
		if old.IsLocalBit(b) {
			n++
		}
	}
	return n
}

// Apply routes every element of the distributed array from layout old to
// layout new entirely sequentially: data[p] is the local slice of
// processor p. It is the reference implementation used to validate both
// the plan-driven machine remap and the analytic formulas. The returned
// slices are freshly allocated.
func Apply(old, new *Layout, data [][]uint32) [][]uint32 {
	P := old.P()
	n := old.LocalN()
	out := make([][]uint32, P)
	for p := range out {
		out[p] = make([]uint32, n)
	}
	for p := 0; p < P; p++ {
		if len(data[p]) != n {
			panic(fmt.Sprintf("addr: Apply processor %d holds %d elements, want %d", p, len(data[p]), n))
		}
		for l := 0; l < n; l++ {
			abs := old.Abs(p, l)
			q, nl := new.Rel(abs)
			out[q][nl] = data[p][l]
		}
	}
	return out
}
