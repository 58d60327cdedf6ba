package spmd

import (
	"fmt"

	"parbitonic/internal/addr"
	"parbitonic/internal/obs"
)

// DirectRemap routes p.Data from plan.Old to plan.New without packing:
// every processor publishes its local memory on the exchange board,
// and after a barrier each one GATHERS its new local array straight
// out of the senders' memories by stepping the plan's inverse routing
// (addr.RemapPlan.GatherWalk). One strided read pass replaces the
// packed path's pack-copy, message delivery and unpack-copy — a full
// copy of the volume saved per remap — which is the shared-memory fast
// path of the native backend: on a machine where "transfer" is just
// memory access, the optimal bulk transfer is no transfer at all.
//
// The placement is bit-identical to RemapExchange (the gather walk
// inverts the pack/unpack masks exactly; see addr.TestGatherWalkInvertsPlan),
// and the communication counters are identical too: VolumeSent and
// MessagesSent record what the packed path WOULD have sent, so results
// remain comparable across paths. Ownership hand-off is safe by
// bulk-synchrony: memories are published before the first barrier,
// every gather completes before the second, and only then does any
// processor recycle its old array.
//
// DirectRemap reports false — having done nothing — when the backend
// did not declare a shared address space (EngineConfig.Shared); callers
// fall back to RemapExchange. The simulator therefore never takes this
// path and its LogGP charging stays untouched.
func (p *ProcOf[E]) DirectRemap(plan *addr.RemapPlan) bool {
	e := p.e
	if !e.shared {
		return false
	}
	n := plan.Old.LocalN()
	if len(p.Data) != n {
		panic(fmt.Sprintf("spmd: processor %d holds %d keys, plan wants %d", p.ID, len(p.Data), n))
	}
	p.checkAbort()
	p.tag(obs.PhaseTransfer)

	// Publish this processor's memory on the board diagonal and keep
	// the packed path's counters: the gather below reads exactly the
	// elements the packed path would have shipped.
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
	next := p.GetBuf(n)
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
	p.PutBuf(old)
	p.tag(obs.PhaseCompute)
	p.Stats.Remaps++
	return true
}

// srcScratch returns the per-processor sender-memory table, reused
// across direct remap rounds so the gather allocates nothing in steady
// state.
func (p *ProcOf[E]) srcScratch(n int) [][]E {
	if cap(p.srcs) < n {
		p.srcs = make([][]E, n)
	}
	return p.srcs[:n]
}
