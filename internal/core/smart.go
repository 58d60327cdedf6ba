package core

import (
	"fmt"

	"parbitonic/element"

	"parbitonic/internal/bitseq"
	"parbitonic/internal/intbits"
	"parbitonic/internal/localsort"
	"parbitonic/internal/schedule"
	"parbitonic/internal/spmd"
)

// smartSort is Algorithm 1: local sort for the first lg n stages, then
// the smart-remap schedule with either the Chapter 4 optimized
// computation or the compare-exchange simulation between remaps.
//
// The schedule (with its remap plans) is precomputed once by Sort and
// shared read-only by all processors.
func smartSort[E element.Elem](pr *spmd.ProcOf[E], sched []schedule.Remap, opts Options) {
	n := len(pr.Data)
	lgn, lgP := intbits.Log2(n), intbits.Log2(pr.P())
	lgN := lgn + lgP

	// Stages 1..lg n: entirely local under the blocked layout. Their net
	// effect is one sorted run per processor, alternating direction
	// (Lemma 6 at the input of stage lg n + 1). FullSort runs its own
	// two-array schedule. Otherwise the run lives in its home array and
	// one spare: the radix sort, every remap's gather and every local
	// phase use the array that does not hold the keys.
	if opts.Compute == FullSort && lgP > 0 {
		fullSortRun(pr, sched, lgn, lgP)
		return
	}
	spare := stateOf(pr, 1, n).spares[0]
	localsort.SortScratch(pr.Data, pr.ID%2 == 0, spare)
	pr.ChargeRadixSort(n)
	for _, r := range sched {
		spare = pr.Remap(r.Plan, opts.Fused, spare)
		if opts.Compute == Simulated {
			for _, st := range schedule.StepsFrom(lgN, lgP, r.K, r.S, r.StepsAfter) {
				simulateStep(pr, r.Layout, st)
			}
			continue
		}
		spare = smartPhase(pr, r, lgn, lgP, spare)
	}
}

// procState is a processor's persistent working state, parked on
// pr.Scratch and shared by every body of this package: the FullSort
// run table and the spare arrays a body sorts in beside its home
// share. It survives runs and aborts, and a spare is reused while it
// holds n keys, so steady-state runs allocate nothing. No spare is ever a view of the caller's keys.
type procState[E element.Elem] struct {
	runs   []localsort.RunOf[E]
	spares [2][]E
}

// stateOf returns pr's state with its first k spares holding n keys.
func stateOf[E element.Elem](pr *spmd.ProcOf[E], k, n int) *procState[E] {
	s, _ := pr.Scratch.(*procState[E])
	if s == nil {
		s = &procState[E]{runs: make([]localsort.RunOf[E], 0, pr.P())}
		pr.Scratch = s
	}
	for i := range s.spares[:k] {
		if cap(s.spares[i]) < n {
			s.spares[i] = make([]E, n)
		}
		s.spares[i] = s.spares[i][:n]
	}
	return s
}

// dirAfterRemap gives the direction processor q's keys are sorted in
// once remap i's local phase completed: the merge direction of the
// stage the phase ends in, which is processor-determined.
func dirAfterRemap(sched []schedule.Remap, lgn, i, q int) bool {
	r := sched[i]
	switch r.Kind {
	case schedule.Inside:
		return ascFor(r.Layout, q, lgn+r.K)
	case schedule.Crossing:
		return ascFor(r.Layout, q, lgn+r.K+1)
	default: // last: the final stage is ascending everywhere
		return true
	}
}

// fullSortRun is the FullSort (fully fused) execution over the
// processor's ascending radix-sorted keys: in the usual regime the
// schedule is [inside, crossing..., last] and after every remap each
// processor's keys are a permutation of the canonical network state at
// the granularity the next remap routes at, so the entire local phase
// is one merge of the incoming runs:
//
//   - every incoming long message is a sorted run (the sender was fully
//     sorted and the pack mask preserves local order within a message);
//   - merging all runs yields the canonical per-processor multiset
//     fully sorted, which is what the next remap needs (§4.1, Figures
//     4.3-4.5);
//   - no separate pack or unpack pass exists (§4.3, Figure 4.8): each
//     receiver reads its messages in place, so the pack is the read.
//
// Every round leaves its keys ascending in its landing array: the
// radix sort, then each merge. Every remap of the schedule is a
// segment deal (addr.RemapPlan.Deal), so PublishInPlace publishes that
// array and each receiver reads its message out of it as 2^s-key
// segments at stride 2^(s+c) (localsort.DealtRun), the member bits
// complemented for a sender whose region is descending, since local
// address l of such a region sits at n-1-l. Each run yields the ranks
// the packed message held, in the same order, so output and tie order
// are those of a pack, exchange and unpack.
//
// The run lives in home and one spare: each write goes into the array
// the previous one did not, and the sort lands where the parity of the
// merges after it makes the final merge write home. A round's array is
// read only by the merge after its publish, which every processor
// finishes before the next publish barrier, so an array is free two
// rounds after it was written.
func fullSortRun[E element.Elem](pr *spmd.ProcOf[E], sched []schedule.Remap, lgn, lgP int) {
	n := len(pr.Data)
	home := pr.Data
	s := stateOf(pr, 1, n)
	// The run table holds views of the peers' arrays, home among them,
	// so it is cleared when the run returns or unwinds.
	defer func() { clear(s.runs[:cap(s.runs)]) }()
	toSpare := len(sched)%2 != 0 // an odd number of merges follows the sort
	cur, next := home, s.spares[0]
	if toSpare {
		cur, next = next, cur
	}
	localsort.RadixSortTo(home, s.spares[0], toSpare)
	pr.ChargeRadixSort(n)
	for i, r := range sched {
		// The usual-regime shape Validate guaranteed: an inside remap,
		// then crossings, then the last remap.
		switch {
		case i == 0 && r.Kind != schedule.Inside,
			i > 0 && i < len(sched)-1 && r.Kind != schedule.Crossing,
			i == len(sched)-1 && i > 0 && r.Kind != schedule.Last:
			panic("core: unexpected schedule shape for FullSort")
		}
		seg, fan, ok := r.Plan.Deal()
		if !ok {
			panic("core: a FullSort remap is not the segment deal its merge reads in place")
		}
		in := pr.PublishInPlace(r.Plan, cur)
		member := r.Plan.Member(pr.ID)
		runs := s.runs[:0]
		total := 0
		for src, arr := range in {
			if len(arr) == 0 {
				continue
			}
			// Round 0's regions run ascending or descending by parity.
			asc := src%2 == 0
			if i > 0 {
				asc = dirAfterRemap(sched, lgn, i-1, src)
			}
			run := localsort.DealtRun(arr, seg, fan, member, !asc)
			runs = append(runs, run)
			total += run.Len()
		}
		s.runs = runs
		if total != n {
			panic("core: FullSort lost keys across a remap")
		}
		localsort.MergeRuns(next, runs)
		pr.Data = next // the round's keys, home after the final merge
		pr.ChargeMerge(total)
		cur, next = next, cur
	}
}

// smartPhase runs the optimized local computation for the lg n (or, for
// the last remap, S) steps following remap r, per Theorems 2 and 3.
// scratch is the processor's n-element spare; the returned slice
// replaces it (the inside phase ping-pongs it with the local array).
func smartPhase[E element.Elem](pr *spmd.ProcOf[E], r schedule.Remap, lgn, lgP int, scratch []E) []E {
	n := len(pr.Data)
	switch r.Kind {
	case schedule.Inside:
		// Theorem 2: the local keys form one bitonic sequence; the lg n
		// steps sort it in the direction of stage lgn+K, which is
		// processor-determined for an inside remap. The sort emits into
		// the scratch buffer, which then becomes the local array and the
		// old array the scratch — a ping-pong, no allocation.
		asc := ascFor(r.Layout, pr.ID, lgn+r.K)
		bitseq.SortBitonic(scratch[:n], pr.Data, asc)
		pr.Data, scratch = scratch[:n], pr.Data
		pr.ChargeMerge(n)

	case schedule.Crossing:
		// Theorem 3, phase one: 2^B contiguous blocks of 2^A keys, each
		// bitonic, sorted by the A steps that finish stage lgn+K. The
		// direction bit (absolute bit lgn+K) is the top local bit, i.e.
		// the top bit of the block index.
		blockLen := 1 << uint(r.A)
		localsort.SortBitonicBlocks(pr.Data, blockLen, 1<<uint(r.B-1), scratch)
		pr.ChargeMerge(n)

		// Theorem 3, phase two: reinterpreting the local address with
		// its low A and high B bit fields interchanged, 2^A interleaved
		// sequences of 2^B keys, each bitonic, sorted by the B steps
		// that open stage lgn+K+1. That stage's direction bit is the
		// lowest bit of the A field — processor-determined. The batch
		// kernel sweeps the columns in cache-sized groups.
		asc := ascFor(r.Layout, pr.ID, lgn+r.K+1)
		localsort.SortBitonicStridedBatch(pr.Data, blockLen, 1<<uint(r.B), asc, scratch)
		pr.ChargeMerge(n)

	case schedule.Last:
		// Blocked layout again; S steps of the final stage remain. They
		// sort each contiguous run of 2^S keys (bitonic by Lemma 7)
		// ascending — the final stage is ascending everywhere.
		if r.StepsAfter != r.S {
			panic(fmt.Sprintf("core: last remap executes %d steps, expected %d", r.StepsAfter, r.S))
		}
		localsort.SortBitonicBlocks(pr.Data, 1<<uint(r.S), 0, scratch)
		pr.ChargeMerge(n)
	}
	return scratch
}
