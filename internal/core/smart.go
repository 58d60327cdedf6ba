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
// run table, the spare arrays a body sorts in beside its home share,
// and cyclic-blocked's strided scratch. It survives runs and aborts,
// and a spare is reused while it holds n keys, so steady-state runs
// allocate nothing. No spare is ever a view of the caller's keys.
type procState[E element.Elem] struct {
	runs    []localsort.RunOf[E]
	spares  [2][]E
	strided []E
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
//   - merging all runs in the processor's merge-region direction yields
//     the canonical per-processor multiset fully sorted, which is what
//     the next remap needs (§4.1, Figures 4.3-4.5);
//   - packing for the next remap is the merge's emission pass, so no
//     separate pack or unpack pass exists (§4.3, Figure 4.8).
func fullSortRun[E element.Elem](pr *spmd.ProcOf[E], sched []schedule.Remap, lgn, lgP int) {
	// Round 0 is a radix sort whose sorted array is itself the first
	// remap's messages: that remap is a two-way segment deal, so each
	// receiver reads its half in place as every second key of the
	// sender's array (localsort.DealtRun) and no pack pass runs (§4.3
	// fuses packing into the local sort). The sort stays in its own
	// landing array, whose keys are warm, where a sort that wrote the
	// messages apart would partition into the spare, cold when a run
	// starts. After it, every phase is ONE pass: a p-way merge of the
	// received runs that writes straight into the next remap's messages
	// (merge = unpack + sort + pack, the thesis's first Ch. 7
	// refinement); the final one writes home, the array the run started
	// on. The run lives in home and one spare: each write goes into the
	// array the previous one did not, and the sort lands where the
	// parity of the writes after it makes the final merge write home.
	// A round's messages are read only by the merge after their
	// exchange, which every processor finishes before the next
	// exchange's publish barrier, so an array is free two rounds after
	// it was written.
	n := len(pr.Data)
	home := pr.Data
	s := stateOf(pr, 1, n)
	// The run table holds views of the peers' arrays, home among them,
	// so it is cleared when the run returns or unwinds.
	defer func() { clear(s.runs[:cap(s.runs)]) }()
	plan := sched[0].Plan
	if seg, fan, ok := plan.Deal(); !ok || seg != 0 || fan != 1 {
		panic("core: FullSort's first remap is not the two-way deal its merge reads in place")
	}
	toSpare := len(sched)%2 != 0 // an odd number of merges follows the sort
	cur, next := s.spares[0], home
	if toSpare {
		cur, next = next, cur
	}
	localsort.RadixSortTo(home, s.spares[0], toSpare)
	pr.ChargeRadixSort(n)
	in := pr.PublishInPlace(plan, next)
	member := plan.Member(pr.ID)
	for i, r := range sched {
		cur, next = next, cur
		// The usual-regime shape Validate guaranteed: an inside remap,
		// then crossings, then the last remap.
		switch {
		case i == 0 && r.Kind != schedule.Inside,
			i > 0 && i < len(sched)-1 && r.Kind != schedule.Crossing,
			i == len(sched)-1 && i > 0 && r.Kind != schedule.Last:
			panic("core: unexpected schedule shape for FullSort")
		}
		runs := s.runs[:0]
		total := 0
		for src, msg := range in {
			if len(msg) == 0 {
				continue
			}
			var run localsort.RunOf[E]
			if i == 0 {
				// Whole sorted arrays arrive, and round 0's senders
				// sorted ascending or descending by parity.
				run = localsort.DealtRun(msg, member, src%2 != 0)
			} else {
				run = localsort.RunOf[E]{Keys: msg, Desc: !dirAfterRemap(sched, lgn, i-1, src)}
			}
			runs = append(runs, run)
			total += run.Len()
		}
		s.runs = runs
		if total != n {
			panic("core: FullSort lost keys across a remap")
		}

		if i == len(sched)-1 {
			// Final phase: the last remap's steps sort ascending; the
			// merge materializes the finished local array at home.
			localsort.MergeRuns(home, runs)
			pr.Data = home
			pr.ChargeMerge(total)
			return
		}

		// Merge-with-pack: the element of ascending rank e sits at local
		// index e (ascending region) or n-1-e (descending region) and goes
		// to the next plan's destination slot for that index.
		plan := sched[i+1].Plan
		out := pr.Messages(plan, next)
		localsort.MergeRunsRouted(out, plan, pr.ID, runs, dirAfterRemap(sched, lgn, i, pr.ID))
		pr.ChargeMerge(total)
		in = pr.ExchangeRuns(plan, out)
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
