package serve

import (
	"context"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"

	"parbitonic"
	"parbitonic/element"
	"parbitonic/internal/obs"
	"parbitonic/internal/resilience"
)

// runBatch executes one batch on a pooled engine and delivers every
// member's result. A lone request is a one-member batch: its tag is
// zero, so packing it is a plain copy, and it runs under its own
// context, riding the runtime's fail-safe cancellation directly.
// Larger batches run under a joint context that aborts only when every
// member has given up.
//
// The batch packs into a buffer allocated for this run alone and sorts
// it with SortPaddedContext, whose bit-equal strip keeps records keyed
// like the padding intact. Each member then gets a view of its part of
// that buffer, capped at its length: the buffer is never reused, so no
// result aliases memory a later run writes, and appending to one
// result cannot write into another.
func (s *ServerOf[E]) runBatch(batch []*request[E]) {
	s.m.observeBatch(len(batch))
	total := 0
	ids := make([]string, len(batch))
	for i, r := range batch {
		total += len(r.keys)
		ids[i] = r.id
	}
	ctx := batch[0].ctx
	if len(batch) > 1 {
		var stop func()
		ctx, stop = s.jointContext(batch)
		defer stop()
		// The joint context derives from the SERVER's context, not the
		// members' — so the member request IDs must be re-attached for
		// the engine run's telemetry to carry its owners.
		ctx = obs.WithRequestIDs(ctx, ids)
	}
	bid := s.m.batchStart(ids, total)
	defer s.m.batchEnd(bid)

	shift := tagShift[E](len(batch))
	buf := make([]E, total)
	err := s.runPooled(ctx, batch, buf, shift, strings.Join(ids, ","))
	if err != nil {
		for _, r := range batch {
			r.finish(s.m, nil, err)
		}
		return
	}
	splitBatch(buf, batch, shift, s.m)
}

// runPooled is the retrying engine-run loop. Each attempt packs the
// batch into buf, checks an engine out of the pool, sorts buf, and
// hands the engine back with its health verdict — a panicked or
// verify-failing engine is quarantined (destroyed), never recycled —
// then feeds the outcome to the circuit breaker. A transient failure
// is re-attempted under the server's retry policy: a jittered
// exponential backoff that never sleeps past ctx's deadline budget,
// then a fresh pack (a failed run leaves buf unspecified). Packing is
// charged to every member's batch stage, engine attempts to the engine
// stage and backoff sleeps to the retry stage; reqs carries the owning
// request ID(s) for the retry and quarantine events.
//
// The engine configuration is the fixed Config.Engine, or the
// plan-resolved shape under Engine.Auto, in which case a successful
// native run feeds measured/predicted into the plan-drift histogram,
// so mispredictions are visible per server. Quarantine, eviction and
// the circuit breaker act on the outcome exactly as for a fixed shape
// — an unhealthy plan-chosen engine is destroyed, its shape's idle set
// evicted on a streak, and persistent failures open the breaker
// regardless of which plan picked the shape.
func (s *ServerOf[E]) runPooled(ctx context.Context, batch []*request[E], buf []E, shift uint, reqs string) error {
	ecfg, padded, plan, err := s.planFor(len(buf))
	if err != nil {
		return err
	}
	for attempt := 0; ; attempt++ {
		packBatch(buf, batch, shift)
		for _, r := range batch {
			r.tr.advance(obs.StageBatch)
		}
		eng, err := s.pool.Get(ecfg, padded)
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = eng.SortPaddedContext(ctx, buf)
		elapsed := time.Since(t0)
		for _, r := range batch {
			r.tr.add(obs.StageEngine, elapsed)
		}
		healthy := resilience.EngineHealthy(err)
		s.pool.Put(eng, padded, healthy)
		if !healthy {
			s.emit(obs.EventQuarantine, err.Error(), reqs)
		}
		s.recordBreaker(err, healthy)
		if err == nil {
			if plan != nil && ecfg.Backend == parbitonic.Native && plan.PredictedUS > 0 {
				// Simulated plans predict model time, not wall time —
				// only native runs have a comparable measurement.
				s.m.planObserve(float64(elapsed) / float64(time.Microsecond) / plan.PredictedUS)
			}
			break
		}
		d, ok := s.policy.ShouldRetry(ctx, attempt, err)
		if !ok {
			return err
		}
		s.m.retry()
		s.emit(obs.EventRetry, err.Error(), reqs)
		t1 := time.Now()
		serr := resilience.Sleep(ctx, d)
		slept := time.Since(t1)
		for _, r := range batch {
			r.tr.add(obs.StageRetry, slept)
			r.tr.reset() // the next advance charges only the repack
		}
		if serr != nil {
			return err
		}
	}
	// Engine time was added directly; move every member's hop mark past
	// the run so the next advance charges only the copy-out.
	for _, r := range batch {
		r.tr.reset()
	}
	return nil
}

// recordBreaker feeds one engine-run outcome to the circuit breaker.
// Only outcomes that say something about backend health count: success
// and engine-quarantining failures. Caller-driven aborts (cancel,
// deadline) are silent — a client hanging up must never open the
// breaker.
func (s *ServerOf[E]) recordBreaker(err error, healthy bool) {
	if s.breaker == nil {
		return
	}
	if err == nil {
		s.breaker.Record(false)
	} else if !healthy {
		s.breaker.Record(true)
	}
}

// jointContext derives the context a multi-request batch runs under:
// it is canceled when the server closes, when every member's context
// is done (no one is left to collect the result), or — when every
// member carries a deadline — at the latest of those deadlines.
func (s *ServerOf[E]) jointContext(batch []*request[E]) (context.Context, func()) {
	base := s.ctx
	latest := time.Time{}
	allDeadlines := true
	for _, r := range batch {
		d, ok := r.ctx.Deadline()
		if !ok {
			allDeadlines = false
			break
		}
		if d.After(latest) {
			latest = d
		}
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if allDeadlines {
		ctx, cancel = context.WithDeadline(base, latest)
	} else {
		ctx, cancel = context.WithCancel(base)
	}
	remaining := int32(len(batch))
	stops := make([]func() bool, 0, len(batch))
	for _, r := range batch {
		stops = append(stops, context.AfterFunc(r.ctx, func() {
			if atomic.AddInt32(&remaining, -1) == 0 {
				cancel()
			}
		}))
	}
	return ctx, func() {
		for _, stop := range stops {
			stop()
		}
		cancel()
	}
}

// tagShift returns the bit position the request tag occupies for a
// k-request batch: tags need b = bits.Len(k-1) high bits of the key
// image, keys keep the low KeyBits-b. The dispatcher's fits()
// guarantees every member's keys clear the shift.
func tagShift[E element.Elem](k int) uint {
	return uint(element.KeyBits[E]()) - uint(bits.Len(uint(k-1)))
}

// packBatch writes the tag-encoded concatenation of the batch into
// buf: request j's elements are copied in and j<<shift is ORed into
// their key word (for records the payload travels untouched). Because
// tags occupy the high bits, sorting buf groups it by request in
// submission order, each group internally sorted. A lone request's tag
// is zero, so it is a plain copy — the only way floats, whose bits a
// tag would reorder, ever reach here.
func packBatch[E element.Elem](buf []E, batch []*request[E], shift uint) {
	pos := 0
	for j, r := range batch {
		part := buf[pos : pos+copy(buf[pos:], r.keys)]
		if j > 0 {
			rekey(part, ^uint64(0), uint64(j)<<shift)
		}
		pos += len(part)
	}
}

// splitBatch masks the tags off the sorted buffer's key words and
// hands request j the len(r.keys) elements starting at the prefix sum
// of earlier members, as a view whose capacity ends at its length.
func splitBatch[E element.Elem](buf []E, batch []*request[E], shift uint, m *Metrics) {
	if len(batch) > 1 {
		rekey(buf, 1<<shift-1, 0)
	}
	pos := 0
	for _, r := range batch {
		end := pos + len(r.keys)
		r.tr.advance(obs.StageCopyOut)
		r.finish(m, buf[pos:end:end], nil)
		pos = end
	}
}

// rekey sets the key word k of every element of s to k&mask | tag, on
// the key word's own width (the leading 4 bytes of a 32-bit key, the
// leading 8 otherwise; see element.KeyOf).
func rekey[E element.Elem](s []E, mask, tag uint64) {
	if element.KeyBits[E]() == 32 {
		rekeyOf[E](s, uint32(mask), uint32(tag))
	} else {
		rekeyOf[E](s, mask, tag)
	}
}

func rekeyOf[E element.Elem, K element.Uint](s []E, mask, tag K) {
	for i := range s {
		k := (*K)(unsafe.Pointer(&s[i]))
		*k = *k&mask | tag
	}
}
