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
	return m.RunContext(ctx, data, RadixBody[E])
}

// procState is a processor's persistent psort state, parked on
// pr.Scratch: the one spare array a body sorts in beside its home share
// (radix sort's send array; sample sort's radix scratch, then its merge
// output) and the small tables around it. It survives runs and aborts
// and grows only when a run needs more, so steady-state runs allocate
// nothing. Its tables hold element values or views of the spare, and
// the run table is cleared once its merge is done, so none of them
// reaches the caller's keys once a round ends.
type procState[E element.Elem] struct {
	spare   []E
	hist    []E            // radix: this pass's digit counts, the histogram message
	send    [radixSize]int // radix: digit counts, then each digit's next send slot
	home    [radixSize]int // radix: each digit's next slot in home
	samples []E            // sample: the P-1 sent, then the P(P-1) gathered
	runs    []localsort.RunOf[E]
}

func stateOf[E element.Elem](pr *spmd.ProcOf[E]) *procState[E] {
	s, _ := pr.Scratch.(*procState[E])
	if s == nil {
		s = new(procState[E])
		pr.Scratch = s
	}
	return s
}

// grow returns buf resliced to n, reallocated only when it is shorter.
func grow[E any](buf []E, n int) []E {
	if cap(buf) < n {
		return make([]E, n)
	}
	return buf[:n]
}

// RadixBody is RadixSort's SPMD body, for a run in which every
// processor holds the same number of keys; an engine that sorts
// repeatedly binds it once, since a generic function value allocates.
// It sorts in home, the processor's share, and one send array. A pass
// counts home's digits, gathers every processor's histogram,
// scatters home into the send array by digit, sends each destination
// its slice of that array, and scatters the received runs back into
// home by digit. The send array is free again once the next pass's
// histogram exchange is done, because every peer unpacks before it
// publishes its histogram.
func RadixBody[E element.Elem](pr *spmd.ProcOf[E]) {
	P, home := pr.P(), pr.Data
	n := len(home)
	w := float64(pr.Words())
	passes := localsort.RadixPassesOf[E]()
	s := stateOf(pr)
	s.spare = grow(s.spare, n)
	s.hist = grow(s.hist, radixSize)
	send := s.spare
	// Float elements run the whole sort in order-image space (a
	// bijective, order-preserving bit transform): every counting pass is
	// then a native integer loop and the images travel the exchanges
	// unchanged. Integer and record elements are their own images.
	element.ToImages(home)
	for pass := 0; pass < passes; pass++ {
		shift := uint(pass * radixBits)

		// Counts travel as elements through their order images
		// (lossless: they are far below any key width).
		digitPass(home, nil, shift, &s.send)
		for d := range s.hist {
			s.hist[d] = element.FromBits[E](uint64(s.send[d]), 0)
		}
		pr.ChargeCompute(pr.Costs().RadixPass * float64(n) * w)
		hists := pr.AllGather(s.hist)

		// Global rank orders keys by (digit, processor, local order), so
		// my digit-d keys hold the ranks from start, and each
		// destination's keys are one slice of the digit-sorted send
		// array, cut where a rank boundary q*n falls. Digit d's first
		// rank in my range is where its received keys start in home.
		msgs := pr.Outbox()
		q, lo := 0, 0
		total, sent, base := 0, 0, pr.ID*n
		for d := range s.send {
			below, all := 0, 0
			for p, h := range hists {
				c := int(element.Bits(h[d]))
				if p < pr.ID {
					below += c
				}
				all += c
			}
			mine, start := s.send[d], total+below
			for q < P-1 && (q+1)*n < start+mine {
				cut := sent + max((q+1)*n-start, 0)
				msgs[q] = send[lo:cut:cut]
				q, lo = q+1, cut
			}
			s.send[d] = sent
			s.home[d] = min(max(total-base, 0), n)
			sent += mine
			total += all
		}
		msgs[q] = send[lo:n:n]
		pr.ChargeCompute(pr.Costs().RadixPass * float64(radixSize*P) / 4)

		digitPass(home, send, shift, &s.send)
		if pr.Long() {
			pr.ChargeCompute(pr.Costs().Pack * float64(n) * w)
		}
		in := pr.Exchange(msgs)

		// Sender p's keys follow those of lower senders within a digit,
		// so scattering the runs in sender order is stable.
		got := 0
		for _, msg := range in {
			got += len(msg)
		}
		if got != n {
			panic(fmt.Sprintf("psort: radix pass delivered %d keys to processor %d, want %d", got, pr.ID, n))
		}
		for _, msg := range in {
			digitPass(msg, home, shift, &s.home)
		}
		if pr.Long() {
			pr.ChargeCompute(pr.Costs().Unpack * float64(n) * w)
		}
	}
	element.FromImages(home)
}

// digitPass is the counting kernel of a radix pass over the digit of
// src's order images at shift. With dst nil it sets offs to the digit
// histogram of src; otherwise it scatters src into dst by digit, each
// key to its digit's offset, advancing that offset. It dispatches once
// on the element kind: float elements, already in image form, move as
// integers of their width.
func digitPass[E element.Elem](src, dst []E, shift uint, offs *[radixSize]int) {
	switch any(*new(E)).(type) {
	case uint32, float32:
		digitPassOf[uint32, uint32](element.Cast[uint32](src), element.Cast[uint32](dst), shift, offs)
	case uint64, float64:
		digitPassOf[uint64, uint64](element.Cast[uint64](src), element.Cast[uint64](dst), shift, offs)
	case element.KV64:
		digitPassOf[E, uint64](src, dst, shift, offs)
	}
}

func digitPassOf[S element.Elem, K element.Uint](src, dst []S, shift uint, offs *[radixSize]int) {
	if dst == nil {
		clear(offs[:])
		for i := range src {
			offs[(element.KeyOf[K](&src[i])>>shift)&radixMask]++
		}
		return
	}
	for i := range src {
		p := &src[i]
		d := (element.KeyOf[K](p) >> shift) & radixMask
		dst[offs[d]] = *p
		offs[d]++
	}
}
