package spmd

import (
	"fmt"

	"parbitonic/internal/obs"
)

// Exchange performs an all-to-all: out[q] is sent to processor q
// (out[p.ID] is kept locally, nil entries send nothing) and the result
// holds one slice per source processor (the local slice comes back in
// position p.ID). Only slice headers cross the board — the handoff is
// zero-copy; receivers read the sender's backing array directly.
// Transfer time is charged per the backend's policy and all clocks
// synchronize afterwards. out is cleared once published, so a body
// that fills its Outbox leaves no message header behind. The returned
// table is the processor's own scratch: it is rewritten by this
// processor's next Exchange, so consume it (or copy the headers out)
// before the next round.
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
	clear(out)
	p.Stats.VolumeSent += vol
	p.Stats.MessagesSent += msgs
	e.bar.maxClock(&p.PC) // publish sends
	in := p.inbox()
	for src := 0; src < e.p; src++ {
		in[src] = e.board[src][p.ID].data
	}
	e.charge.Transfer(&p.PC, vol, msgs)
	e.bar.maxClock(&p.PC) // everyone has read; board reusable, clocks synced
	p.tag(obs.PhaseCompute)
	return in
}

// inbox returns the processor's received-message table, one entry per
// source processor, rewritten by every Exchange and PublishInPlace.
func (p *ProcOf[E]) inbox() [][]E {
	if p.in == nil {
		p.in = make([][]E, p.e.p)
	}
	return p.in
}

// PairExchange swaps data with one partner processor: both send their
// slice and receive the other's. Every processor must participate in
// the round (processors pair up mutually). It is a one-message
// Exchange, used by the Blocked-Merge baseline, whose remote steps
// exchange full halves between pairs.
func (p *ProcOf[E]) PairExchange(partner int, out []E) []E {
	if partner < 0 || partner >= p.e.p || partner == p.ID {
		panic(fmt.Sprintf("spmd: bad partner %d for processor %d", partner, p.ID))
	}
	outs := p.Outbox()
	outs[partner] = out
	return p.Exchange(outs)[partner]
}

// AllGather sends mine to every processor and returns all
// contributions indexed by source (the local contribution included).
func (p *ProcOf[E]) AllGather(mine []E) [][]E {
	outs := p.Outbox()
	for q := range outs {
		outs[q] = mine
	}
	return p.Exchange(outs)
}
