package spmd

import (
	"fmt"

	"parbitonic/internal/addr"
	"parbitonic/internal/obs"
)

// RemapBarriers is the number of barriers one remap crosses on every
// data path: Remap's publish and release barriers below, and
// Exchange's publish and read barriers, which ExchangeRuns goes
// through once. A native remap's data movement is local computation
// (the gather, or the dealing sort or routed merge feeding
// ExchangeRuns), so the native planner prices a remap as this many
// measured barrier round trips (internal/tune). TestRemapBarriers
// pins the count.
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

	// Publish this processor's memory on the board diagonal and count
	// the long messages the packed pipeline would send: the gather
	// below reads exactly those elements.
	e.board[p.ID][p.ID] = delivery[E]{data: p.Data}
	vol, msgs := plan.SendCounts(p.ID)
	p.Stats.VolumeSent += vol
	p.Stats.MessagesSent += msgs
	e.bar.maxClock(&p.PC) // all memories published

	p.grp = plan.AppendSenders(p.grp[:0], p.ID)
	srcs := p.srcScratch(len(p.grp))
	for g, s := range p.grp {
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

// srcScratch returns the per-processor sender-memory table, reused
// across remap rounds so the gather allocates nothing in steady state.
func (p *ProcOf[E]) srcScratch(n int) [][]E {
	if cap(p.srcs) < n {
		p.srcs = make([][]E, n)
	}
	return p.srcs[:n]
}
