package core

import (
	"parbitonic/element"
	"parbitonic/internal/addr"
	"parbitonic/internal/intbits"
	"parbitonic/internal/localsort"
	"parbitonic/internal/schedule"
	"parbitonic/internal/spmd"
)

// cyclicBlockedSort is the [CDMS94] baseline of §2.3: for each of the
// last lg P stages, remap blocked->cyclic, execute the first k steps
// locally (bitonic-split sweeps), remap back to blocked, and finish the
// stage with a local sort. Requires n >= P.
func cyclicBlockedSort[E element.Elem](pr *spmd.ProcOf[E], toCyclic, toBlocked *addr.RemapPlan, opts Options) {
	n := len(pr.Data)
	lgn, lgP := intbits.Log2(n), intbits.Log2(pr.P())
	lgN := lgn + lgP

	// The run lives in its home array and one spare, which serves the
	// radix sorts and the strided merges as scratch and each remap as
	// its destination.
	s := stateOf(pr, 1, n)
	spare := s.spares[0]
	localsort.SortScratch(pr.Data, pr.ID%2 == 0, spare)
	pr.ChargeRadixSort(n)
	if lgP == 0 {
		return
	}

	blocked := toBlocked.New
	cyclic := toCyclic.New

	for k := 1; k <= lgP; k++ {
		stage := lgn + k
		spare = pr.Remap(toCyclic, false, spare)
		// First k steps of the stage execute locally under cyclic. They
		// form, for every group of 2^k keys whose absolute addresses
		// differ only in bits lgn..lgn+k-1, a complete butterfly: the
		// group is bitonic (Lemma 7) and comes out sorted. [CDMS94]
		// exploits exactly this, computing the cyclic phase with bitonic
		// merges — one linear pass instead of k compare-exchange sweeps.
		if opts.Compute == Optimized {
			// Under cyclic, absolute bit lgn+i is local bit lgn-lgP+i:
			// groups are the columns of stride 2^(lgn-lgP) and count 2^k
			// in each contiguous block of stride<<k keys, and the
			// direction bit (absolute lgn+k) is the block's low bit.
			stride := 1 << uint(lgn-lgP)
			block := stride << uint(k)
			if stride == 1 {
				// n = P: each group is a contiguous block (the batch
				// kernel's column buffer would not fit in the spare), its
				// direction alternating except in the last stage.
				localsort.SortBitonicBlocks(pr.Data, block, min(lgN-stage, 1), spare)
			} else {
				for b := 0; b < n; b += block {
					asc := stage == lgN || b&block == 0
					localsort.SortBitonicStridedBatch(pr.Data[b:b+block], stride, 1<<uint(k), asc, spare)
				}
			}
			pr.ChargeMerge(n)
		} else {
			for j := 0; j < k; j++ {
				simulateStep(pr, cyclic, schedule.Step{Bit: stage - 1 - j, Stage: stage})
			}
		}
		spare = pr.Remap(toBlocked, false, spare)
		// Remaining lg n steps under blocked: each processor holds one
		// bitonic sequence (Lemma 7 at column lg n); [CDMS94] finishes
		// with a local radix sort in the stage's direction.
		if opts.Compute == Optimized {
			localsort.SortScratch(pr.Data, ascFor(blocked, pr.ID, stage), spare)
			pr.ChargeRadixSort(n)
		} else {
			for j := lgn; j >= 1; j-- {
				simulateStep(pr, blocked, schedule.Step{Bit: j - 1, Stage: stage})
			}
		}
	}
}

// compareSplit fills out with the element-wise minima (keepMin) or
// maxima of mine and theirs — the remote compare-split kept half of a
// [BLM+91] step. It dispatches once on the element kind to one body
// over the key view (element.KeyOf).
func compareSplit[E element.Elem](out, mine, theirs []E, keepMin bool) {
	switch any(*new(E)).(type) {
	case uint32:
		compareSplitOf[E, uint32](out, mine, theirs, keepMin)
	case uint64, element.KV64:
		compareSplitOf[E, uint64](out, mine, theirs, keepMin)
	case float32:
		compareSplitOf[uint32, float32](element.Cast[uint32](out), element.Cast[uint32](mine), element.Cast[uint32](theirs), keepMin)
	case float64:
		compareSplitOf[uint64, float64](element.Cast[uint64](out), element.Cast[uint64](mine), element.Cast[uint64](theirs), keepMin)
	}
}

// compareSplitOf keeps theirs[i] only when its key is strictly smaller
// (keepMin) or larger than mine[i]'s; ties keep mine.
func compareSplitOf[S element.Elem, K element.Ord](out, mine, theirs []S, keepMin bool) {
	theirs = theirs[:len(mine)]
	out = out[:len(mine)]
	if keepMin {
		for i := range mine {
			pm, pt := &mine[i], &theirs[i]
			v := *pm
			if element.KeyOf[K](pt) < element.KeyOf[K](pm) {
				v = *pt
			}
			out[i] = v
		}
		return
	}
	for i := range mine {
		pm, pt := &mine[i], &theirs[i]
		v := *pm
		if element.KeyOf[K](pt) > element.KeyOf[K](pm) {
			v = *pt
		}
		out[i] = v
	}
}

// blockedMergeSort is the [BLM+91] baseline of §5.3: a fixed blocked
// layout. For stage lg n + k the first k steps pair processors that
// exchange their full n keys and keep the element-wise minima or maxima
// (a remote compare-split); the remaining lg n steps are a local sort.
func blockedMergeSort[E element.Elem](pr *spmd.ProcOf[E]) {
	n := len(pr.Data)
	lgn, lgP := intbits.Log2(n), intbits.Log2(pr.P())

	// The run rotates its home array and two spares. A compare-split
	// writes the array the partner read one step earlier, which the
	// exchange's barriers have since freed, and leaves the array it
	// replaced to the partner's compare-split of the same step, so that
	// one stays busy until the next exchange. The third array is never
	// shared: the radix sorts use it as scratch while the partner reads.
	// One processor needs only that one.
	s := stateOf(pr, min(lgP, 1)+1, n)
	free, read := s.spares[0], s.spares[1]
	localsort.SortScratch(pr.Data, pr.ID%2 == 0, free)
	pr.ChargeRadixSort(n)
	for k := 1; k <= lgP; k++ {
		stage := lgn + k
		// Under the blocked layout absolute bit lgn+k is processor bit k,
		// clear everywhere for the final stage (k = lg P): ascending.
		asc := pr.ID>>uint(k)&1 == 0
		for j := 0; j < k; j++ {
			bit := stage - 1 - j // always >= lg n: a remote step
			procBit := bit - lgn
			partner := pr.ID ^ 1<<uint(procBit)
			theirs := pr.PairExchange(partner, pr.Data)
			// My rows have absolute bit `bit` equal to my processor bit;
			// the row with the bit clear receives the minimum iff the
			// merge is ascending (Definition 3).
			iAmLow := pr.ID>>uint(procBit)&1 == 0
			keepMin := iAmLow == asc
			compareSplit(read, pr.Data, theirs, keepMin)
			pr.Data, read = read, pr.Data
			// The [BLM+91] step "simulates a merge step" over both the
			// local and the received keys: 2n elements of linear work.
			pr.ChargeMerge(2 * n)
		}
		// Remaining lg n steps are local; [BLM+91] uses a radix sort.
		localsort.SortScratch(pr.Data, asc, free)
		pr.ChargeRadixSort(n)
	}
}
