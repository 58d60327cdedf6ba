package spmd

import (
	"sync"

	"parbitonic/internal/obs"
)

// barrier is a reusable sense-reversing barrier for exactly p
// goroutines that additionally reduces the participants' clocks to
// their maximum (the bulk-synchronous interpretation of a collective
// phase — valid for virtual and wall clocks alike). It can be poisoned
// to unblock everyone when one participant fails or the run is
// canceled, preventing deadlock: released waiters unwind with the
// poisonPanic sentinel, which the engine's worker recovery swallows.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	p       int
	count   int
	gen     uint64
	maxSeen float64
	prevMax float64
	broken  bool
}

func newBarrier(p int) *barrier {
	b := &barrier{p: p}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// maxClock enters the barrier with the processor's clock; on release
// every participant's clock is the maximum entered this round. On the
// way through it also serves the observability layer: the idle gap up
// to the round maximum becomes a wait span, the processor's buffered
// spans are flushed to the sink (outside the barrier lock), and the
// goroutine's pprof phase label reads "wait" while blocked.
func (b *barrier) maxClock(pr *PC) {
	prevTag := pr.curTag
	pr.tag(obs.PhaseWait)
	b.mu.Lock()
	if b.broken {
		b.mu.Unlock()
		panic(poisonPanic{})
	}
	if pr.Clock > b.maxSeen {
		b.maxSeen = pr.Clock
	}
	b.count++
	if b.count == b.p {
		// Last arriver releases the round.
		b.prevMax = b.maxSeen
		b.maxSeen = 0
		b.count = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		gen := b.gen
		for gen == b.gen && !b.broken {
			b.cond.Wait()
		}
		if b.broken {
			b.mu.Unlock()
			panic(poisonPanic{})
		}
	}
	if b.prevMax > pr.Clock {
		pr.Span(obs.PhaseWait, pr.Clock, b.prevMax)
	}
	pr.Clock = b.prevMax
	b.mu.Unlock()
	pr.flushObs()
	pr.tag(prevTag)
	pr.st.charge.Synced(pr)
}

// poison releases all waiters with the unwind sentinel so a failed
// processor or a canceled context does not deadlock the engine.
func (b *barrier) poison() {
	b.mu.Lock()
	b.broken = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// reset repairs a poisoned barrier so the engine can be reused.
func (b *barrier) reset() {
	b.mu.Lock()
	b.broken = false
	b.count = 0
	b.maxSeen = 0
	b.mu.Unlock()
}
