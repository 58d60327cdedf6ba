package spmd

import (
	"fmt"

	"parbitonic/internal/addr"
	"parbitonic/internal/obs"
)

// RemapBarriers is the number of barriers one remap crosses on every
// data path: Remap's and PublishInPlace's publish and release barriers
// below, and Exchange's publish and read barriers. A native remap's
// data movement is local computation (the gather, or the merge that
// reads PublishInPlace's arrays), so the native planner prices a remap
// as this many measured barrier round trips (internal/tune).
// TestRemapBarriers pins the count.
const RemapBarriers = 2

// Remap routes p.Data from plan.Old to plan.New, gathering the new
// local array into dst (capacity n, not p.Data's array), and returns the
// array p.Data held before, which no processor reads any more. Every
// processor publishes its local memory on the exchange board, and
// after a barrier each one GATHERS its new local array straight out of
// the senders' memories by stepping the plan's inverse routing
// (addr.RemapPlan.GatherWalk). One strided read pass does the work of
// the paper's pack, message delivery and unpack (Figure 3.17).
//
// The placement is exactly the pack → exchange → unpack one (the gather
// walk inverts the pack and unpack masks; see
// addr.TestGatherWalkInvertsPlan), and so are the charges: VolumeSent
// and MessagesSent record the long messages the packed pipeline sends,
// Transfer is charged for them, and with long messages the pack and
// unpack passes are charged before the publish barrier and after the
// release barrier unless fused is true, modelling §4.3's fusion of
// packing and unpacking with the local sorts. The simulator's clocks,
// spans and counters are therefore those of the §3.4 pipeline; the
// wall-clock charger measures the gather as transfer time, since no
// pack or unpack pass exists.
//
// Ownership hand-off is safe by bulk-synchrony: memories are published
// before the first barrier and every gather completes before the
// second, so the returned array is the caller's again, and a body that
// alternates two arrays remaps without allocating.
func (p *ProcOf[E]) Remap(plan *addr.RemapPlan, fused bool, dst []E) []E {
	e := p.e
	n := plan.Old.LocalN()
	if len(p.Data) != n {
		panic(fmt.Sprintf("spmd: processor %d holds %d keys, plan wants %d", p.ID, len(p.Data), n))
	}
	p.checkAbort()
	p.tag(obs.PhaseTransfer)
	charged := e.long && !fused
	if charged {
		e.charge.Pack(&p.PC, n)
	}

	// The gather below reads exactly the elements of the long messages
	// the packed pipeline would send.
	vol, msgs := p.publish(plan, p.Data)
	grp := p.senders(plan)
	srcs := p.srcScratch(len(grp))
	for g, s := range grp {
		srcs[g] = e.board[s][s].data
	}
	next := dst[:n]
	w := plan.GatherWalk(p.ID)
	for i := range next {
		next[i] = srcs[w.A][w.B]
		w = w.Next()
	}
	for g := range srcs {
		srcs[g] = nil
	}
	e.charge.Transfer(&p.PC, vol, msgs)
	e.bar.maxClock(&p.PC) // every gather done; old memories reclaimable

	e.board[p.ID][p.ID] = delivery[E]{}
	old := p.Data
	p.Data = next
	if charged {
		e.charge.Unpack(&p.PC, n)
	}
	p.tag(obs.PhaseCompute)
	p.Stats.Remaps++
	return old
}

// PublishInPlace performs a remap whose messages stay where their
// sender wrote them: every processor publishes arr, its n keys laid
// out so that each receiver can read its message in place, and gets
// back its senders' arrays, indexed by sender like Exchange's result
// (nil for processors that send it nothing). Every FullSort round
// publishes its ascending array, and each receiver reads its message
// as a deal view of it (addr.RemapPlan.Deal, localsort.DealtRun). The
// call crosses Remap's two barriers and records and charges the long
// messages the packed pipeline sends (plan.SendCounts), as Remap does
// with fused set, so clocks and counters are those of that path. A
// received array stays valid until its sender writes it again: a
// FullSort body does so two rounds later, after the next publish
// barrier. p.Data is set nil.
func (p *ProcOf[E]) PublishInPlace(plan *addr.RemapPlan, arr []E) [][]E {
	e := p.e
	if n := plan.Old.LocalN(); len(arr) != n {
		panic(fmt.Sprintf("spmd: processor %d publishes %d keys, plan wants %d", p.ID, len(arr), n))
	}
	p.checkAbort()
	p.tag(obs.PhaseTransfer)
	vol, msgs := p.publish(plan, arr)
	in := p.inbox()
	clear(in)
	for _, s := range p.senders(plan) {
		in[s] = e.board[s][s].data
	}
	e.charge.Transfer(&p.PC, vol, msgs)
	e.bar.maxClock(&p.PC) // every lookup done; the board diagonal is free
	e.board[p.ID][p.ID] = delivery[E]{}
	p.Data = nil
	p.Stats.Remaps++
	p.tag(obs.PhaseCompute)
	return in
}

// publish puts arr on the board diagonal, records the long messages the
// packed pipeline sends under plan, and returns their counts once
// every processor has published.
func (p *ProcOf[E]) publish(plan *addr.RemapPlan, arr []E) (vol, msgs int) {
	p.e.board[p.ID][p.ID] = delivery[E]{data: arr}
	vol, msgs = plan.SendCounts(p.ID)
	p.Stats.VolumeSent += vol
	p.Stats.MessagesSent += msgs
	p.e.bar.maxClock(&p.PC) // all memories published
	return vol, msgs
}

// senders returns the processors that send to p under the plan, in
// GatherWalk's A order, in per-processor scratch rewritten by the next
// call.
func (p *ProcOf[E]) senders(plan *addr.RemapPlan) []int {
	p.grp = plan.AppendSenders(p.grp[:0], p.ID)
	return p.grp
}

// srcScratch returns the per-processor sender-memory table, reused
// across remap rounds so the gather allocates nothing in steady state.
func (p *ProcOf[E]) srcScratch(n int) [][]E {
	if cap(p.srcs) < n {
		p.srcs = make([][]E, n)
	}
	return p.srcs[:n]
}
