// Package psort implements the two comparator algorithms of §5.5 —
// parallel radix sort and parallel sample sort — on the same simulated
// machine and with the same long-message discipline as the bitonic
// sorts, following the structure of the optimized Split-C
// implementations of [AISS95] that the paper compares against.
//
// Both algorithms are generic over the element layer: radix sort runs
// over the elements' order images (so floats sort by value and KV64
// records by key), with one counting-pass body that reads each image
// through element.KeyOf; sample sort compares through element.Less.
// Charges scale with the element width via PC.Words, so uint32 runs
// charge exactly the paper's model.
package psort

import (
	"context"
	"fmt"

	"parbitonic/element"
	"parbitonic/internal/localsort"
	"parbitonic/internal/spmd"
)

const (
	radixBits = 11
	radixSize = 1 << radixBits
	radixMask = radixSize - 1
)

// RadixSort runs a parallel LSD radix sort: for each 11-bit digit of
// the key (three per 32 bits of key width), processors build local
// histograms, exchange them to compute every key's global rank, and
// redistribute the keys so that processor q receives global ranks
// [q*n, (q+1)*n). The output is globally sorted and perfectly balanced.
// It takes ownership of data; retrieve the output with m.Data().
//
// The per-pass histogram exchange and scan is the fixed cost that makes
// parallel radix sort expensive for small n — the source of the
// bitonic-vs-radix crossover in Figures 5.7/5.8.
func RadixSort[E element.Elem](m spmd.BackendOf[E], data [][]E) (spmd.Result, error) {
	return RadixSortContext(context.Background(), m, data)
}

// RadixSortContext is RadixSort under a context: cancellation or
// deadline expiry aborts the run with a typed error (spmd.ErrCanceled
// / ErrDeadline); a processor panic surfaces as a *spmd.PanicError.
func RadixSortContext[E element.Elem](ctx context.Context, m spmd.BackendOf[E], data [][]E) (spmd.Result, error) {
	P := m.P()
	if len(data) != P {
		return spmd.Result{}, fmt.Errorf("psort: %d data slices for %d processors", len(data), P)
	}
	n := len(data[0])
	for i := range data {
		if len(data[i]) != n {
			return spmd.Result{}, fmt.Errorf("psort: ragged data at processor %d", i)
		}
	}
	return m.RunContext(ctx, data, func(pr *spmd.ProcOf[E]) { radixBody(pr, n) })
}

func radixBody[E element.Elem](pr *spmd.ProcOf[E], n int) {
	P := pr.P()
	w := float64(pr.Words())
	passes := localsort.RadixPassesOf[E]()
	// Float elements run the whole sort in order-image space (a
	// bijective, order-preserving bit transform): every counting pass is
	// then a native integer loop and the images travel the exchanges
	// unchanged. Integer and record elements are their own images.
	element.ToImages(pr.Data)
	scratch := make([]E, n)
	for pass := 0; pass < passes; pass++ {
		shift := uint(pass * radixBits)

		// Local stable counting sort by this pass's digit; afterwards
		// the local keys are in (digit, previous order) order, which is
		// global-rank order within each digit.
		var hist [radixSize]uint32
		countScatter(pr.Data, scratch, shift, &hist)
		pr.Data, scratch = scratch, pr.Data
		pr.ChargeCompute(pr.Costs().RadixPass * float64(n) * w)

		// Exchange histograms so every processor can compute global
		// ranks: senderStart[p][d] is the global rank of processor p's
		// first digit-d key. Counts travel as elements through their
		// order images (lossless: they are far below any key width).
		mine := make([]E, radixSize)
		for d, c := range hist {
			mine[d] = element.FromBits[E](uint64(c), 0)
		}
		histIn := pr.AllGather(mine)

		senderStart := make([][]int, P)
		for p := range senderStart {
			senderStart[p] = make([]int, radixSize)
		}
		counts := make([][]int, P)
		for p := range counts {
			counts[p] = make([]int, radixSize)
			for d, v := range histIn[p] {
				counts[p][d] = int(element.Bits(v))
			}
		}
		running := 0
		for d := 0; d < radixSize; d++ {
			for p := 0; p < P; p++ {
				senderStart[p][d] = running
				running += counts[p][d]
			}
		}
		pr.ChargeCompute(pr.Costs().RadixPass * float64(radixSize*P) / 4)

		// Route: my digit-d keys occupy global ranks
		// [senderStart[me][d], +hist[d]); walking my digit-sorted keys
		// assigns consecutive ranks per digit, so per-destination
		// messages come out in (digit, rank) order automatically.
		msgs := make([][]E, P)
		d := 0
		remaining := int(hist[0])
		rank := senderStart[pr.ID][0]
		for _, k := range pr.Data {
			for remaining == 0 {
				d++
				remaining = int(hist[d])
				rank = senderStart[pr.ID][d]
			}
			q := rank / n
			msgs[q] = append(msgs[q], k)
			rank++
			remaining--
		}
		if pr.Long() {
			pr.ChargeCompute(pr.Costs().Pack * float64(n) * w)
		}
		in := pr.Exchange(msgs)

		// Unpack: sender p's digit-d keys destined to me occupy the
		// contiguous rank range [senderStart[p][d], +count) clipped to
		// my segment, and p's message lists them in (digit, rank) order.
		next := pr.Data[:n]
		base := pr.ID * n
		for p := 0; p < P; p++ {
			msg := in[p]
			idx := 0
			for d := 0; d < radixSize && idx < len(msg); d++ {
				cnt := counts[p][d]
				if cnt == 0 {
					continue
				}
				lo, hi := senderStart[p][d], senderStart[p][d]+cnt
				if hi <= base || lo >= base+n {
					continue
				}
				from, to := max(lo, base), min(hi, base+n)
				for r := from; r < to; r++ {
					next[r-base] = msg[idx]
					idx++
				}
			}
			if idx != len(msg) {
				panic("psort: radix unpack consumed wrong message length")
			}
		}
		pr.Data = next
		scratch = scratch[:n]
		if pr.Long() {
			pr.ChargeCompute(pr.Costs().Unpack * float64(n) * w)
		}
	}
	element.FromImages(pr.Data)
}

// countScatter performs one stable counting pass: it fills hist with
// the digit histogram of src at the given shift and scatters src into
// dst in digit order. It dispatches once on the element kind to one
// body over the elements' order images: float elements, already in
// image form, move as integers of their width.
func countScatter[E element.Elem](src, dst []E, shift uint, hist *[radixSize]uint32) {
	switch any(*new(E)).(type) {
	case uint32, float32:
		countScatterOf[uint32, uint32](element.Cast[uint32](src), element.Cast[uint32](dst), shift, hist)
	case uint64, float64:
		countScatterOf[uint64, uint64](element.Cast[uint64](src), element.Cast[uint64](dst), shift, hist)
	case element.KV64:
		countScatterOf[E, uint64](src, dst, shift, hist)
	}
}

func countScatterOf[S element.Elem, K element.Uint](src, dst []S, shift uint, hist *[radixSize]uint32) {
	for i := range src {
		hist[(element.KeyOf[K](&src[i])>>shift)&radixMask]++
	}
	var offs [radixSize]int
	sum := 0
	for d := 0; d < radixSize; d++ {
		offs[d] = sum
		sum += int(hist[d])
	}
	for i := range src {
		p := &src[i]
		d := (element.KeyOf[K](p) >> shift) & radixMask
		dst[offs[d]] = *p
		offs[d]++
	}
}
