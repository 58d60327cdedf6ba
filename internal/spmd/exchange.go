package spmd

import (
	"fmt"

	"parbitonic/internal/addr"
	"parbitonic/internal/obs"
)

// Exchange performs an all-to-all: out[q] is sent to processor q
// (out[p.ID] is kept locally, nil entries send nothing) and the result
// holds one slice per source processor (the local slice comes back in
// position p.ID). Only slice headers cross the board — the handoff is
// zero-copy; receivers read the sender's backing array directly.
// Transfer time is charged per the backend's policy and all clocks
// synchronize afterwards. The returned table is the processor's own
// scratch: it is rewritten by this processor's next Exchange, so
// consume it (or copy the headers out) before the next round.
func (p *ProcOf[E]) Exchange(out [][]E) [][]E {
	p.checkAbort()
	p.tag(obs.PhaseTransfer)
	e := p.e
	if len(out) != e.p {
		panic(fmt.Sprintf("spmd: Exchange wants %d destination slices, got %d", e.p, len(out)))
	}
	vol, msgs := 0, 0
	for q, msg := range out {
		e.board[p.ID][q] = delivery[E]{data: msg}
		if q != p.ID && len(msg) > 0 {
			vol += len(msg)
			msgs++
		}
	}
	p.Stats.VolumeSent += vol
	p.Stats.MessagesSent += msgs
	e.bar.maxClock(&p.PC) // publish sends
	if p.in == nil {
		p.in = make([][]E, e.p)
	}
	in := p.in
	for src := 0; src < e.p; src++ {
		in[src] = e.board[src][p.ID].data
	}
	e.charge.Transfer(&p.PC, vol, msgs)
	e.bar.maxClock(&p.PC) // everyone has read; board reusable, clocks synced
	p.tag(obs.PhaseCompute)
	return in
}

// PairExchange swaps data with one partner processor: both send their
// slice and receive the other's. Every processor must participate in
// the round (processors pair up mutually). Used by the Blocked-Merge
// baseline, whose remote steps exchange full halves between pairs.
func (p *ProcOf[E]) PairExchange(partner int, out []E) []E {
	p.checkAbort()
	p.tag(obs.PhaseTransfer)
	e := p.e
	if partner < 0 || partner >= e.p || partner == p.ID {
		panic(fmt.Sprintf("spmd: bad partner %d for processor %d", partner, p.ID))
	}
	e.board[p.ID][partner] = delivery[E]{data: out}
	p.Stats.VolumeSent += len(out)
	p.Stats.MessagesSent++
	e.bar.maxClock(&p.PC)
	in := e.board[partner][p.ID].data
	e.charge.Transfer(&p.PC, len(out), 1)
	e.bar.maxClock(&p.PC)
	p.tag(obs.PhaseCompute)
	return in
}

// planDests returns this processor's destination group under the
// plan, in per-processor scratch rewritten by the next call.
func (p *ProcOf[E]) planDests(plan *addr.RemapPlan) []int {
	p.grp = plan.AppendDests(p.grp[:0], p.ID)
	return p.grp
}

// pack routes p.Data into pooled per-destination message buffers per
// the plan. The returned slice is the per-processor out table; the
// caller must run it through Exchange before touching p.Data again and
// clear it afterwards.
func (p *ProcOf[E]) pack(plan *addr.RemapPlan) [][]E {
	out := p.outScratch()
	for _, q := range p.planDests(plan) {
		out[q] = p.GetBuf(plan.MsgLen)
	}
	w := plan.PackWalk(p.ID, false)
	for _, v := range p.Data {
		out[w.A][w.B] = v
		w = w.Next()
	}
	return out
}

// RemapExchange routes p.Data from plan.Old to plan.New: it packs the
// local keys into per-destination long messages using the plan's pack
// mask, exchanges them, and unpacks into the new local order
// (Figure 3.17's three phases). Pack and unpack costs are charged
// unless fused is true, modelling §4.3's fusion of packing/unpacking
// with the local sorts (the data movement still happens; only the extra
// passes disappear).
//
// In short-message mode each key is its own message and no pack/unpack
// cost arises (there is nothing to pack), exactly as in §3.3.
//
// Message buffers come from the engine's pool: each received message's
// backing array is recycled once unpacked, so steady-state remapping
// allocates only the new local array.
func (p *ProcOf[E]) RemapExchange(plan *addr.RemapPlan, fused bool) {
	e := p.e
	n := plan.Old.LocalN()
	if len(p.Data) != n {
		panic(fmt.Sprintf("spmd: processor %d holds %d keys, plan wants %d", p.ID, len(p.Data), n))
	}
	p.tag(obs.PhasePack)
	out := p.pack(plan)
	if e.long && !fused {
		e.charge.Pack(&p.PC, n)
	}
	in := p.Exchange(out)
	p.clearOuts()
	// Unpack into the new local order. The new array comes from the
	// engine pool and the old one goes back to it: the exchange already
	// copied every key out of p.Data during pack, so the backing array
	// is free the moment the messages are in flight, and steady-state
	// remapping allocates nothing.
	p.tag(obs.PhaseUnpack)
	next := p.GetBuf(n)
	for src, msg := range in {
		if len(msg) == 0 {
			continue
		}
		w := plan.UnpackWalk(src)
		for _, v := range msg {
			next[w.A] = v
			w = w.Next()
		}
		p.PutBuf(msg)
	}
	p.PutBuf(p.Data)
	p.Data = next
	if e.long && !fused {
		e.charge.Unpack(&p.PC, n)
	}
	p.tag(obs.PhaseCompute)
	p.Stats.Remaps++
}

// RemapExchangeRuns is RemapExchange without the unpack phase: it
// packs p.Data per the plan, exchanges, and returns the received long
// messages indexed by source processor so the caller can fuse the
// unpacking into its local computation (§4.3's p-way merge). p.Data is
// set to nil (the spent input array is recycled into the free list —
// the pack already copied every key out of it); the caller must
// install the merged result. Neither pack nor unpack time is charged:
// the pack is fused into the local sort that precedes it. The returned
// messages are pooled buffers — hand them back with PutBuf once
// consumed.
func (p *ProcOf[E]) RemapExchangeRuns(plan *addr.RemapPlan) [][]E {
	n := plan.Old.LocalN()
	if len(p.Data) != n {
		panic(fmt.Sprintf("spmd: processor %d holds %d keys, plan wants %d", p.ID, len(p.Data), n))
	}
	p.tag(obs.PhasePack)
	in := p.Exchange(p.pack(plan))
	p.clearOuts()
	p.PutBuf(p.Data)
	p.Data = nil
	p.Stats.Remaps++
	return in
}

// RemapExchangePrepacked performs a remap whose messages the caller has
// already packed (out[q] must be a plan.MsgLen slice for every group
// destination, nil elsewhere). Used when the local computation emits
// directly into the message buffers — the thesis's "single local
// computation step" future work — so neither pack nor unpack time is
// charged. Returns the received messages by source; p.Data is set nil.
func (p *ProcOf[E]) RemapExchangePrepacked(plan *addr.RemapPlan, out [][]E) [][]E {
	e := p.e
	if len(out) != e.p {
		panic(fmt.Sprintf("spmd: prepacked exchange wants %d slices, got %d", e.p, len(out)))
	}
	for _, q := range p.planDests(plan) {
		if len(out[q]) != plan.MsgLen {
			panic(fmt.Sprintf("spmd: prepacked message to %d has %d keys, plan wants %d", q, len(out[q]), plan.MsgLen))
		}
	}
	in := p.Exchange(out)
	p.Data = nil
	p.Stats.Remaps++
	return in
}

// PackBuffers returns pooled plan.MsgLen buffers for every destination
// of this processor under the plan, for use with
// RemapExchangePrepacked. The caller owns nil-ing its table entries
// after the exchange.
func (p *ProcOf[E]) PackBuffers(plan *addr.RemapPlan) [][]E {
	out := p.outScratch()
	for _, q := range p.planDests(plan) {
		out[q] = p.GetBuf(plan.MsgLen)
	}
	return out
}

// ClearPackBuffers nils the per-processor destination table filled by
// PackBuffers once the exchange round has completed.
func (p *ProcOf[E]) ClearPackBuffers() { p.clearOuts() }
