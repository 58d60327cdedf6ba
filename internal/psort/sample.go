package psort

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"parbitonic/element"
	"parbitonic/internal/localsort"
	"parbitonic/internal/spmd"
)

// SampleSortResult carries the machine result plus the output balance
// information that §5.5 discusses: sample sort's performance depends on
// how evenly the splitters divide the input.
type SampleSortResult struct {
	spmd.Result
	// MaxKeys is the largest number of keys any processor ended up
	// with; n is the balanced share. MaxKeys/n is the imbalance factor.
	MaxKeys int
}

// SampleSort runs a one-pass parallel sample sort in the style of
// [AISS95]: local radix sort, splitter selection from P-1 evenly spaced
// local samples per processor, an all-to-all redistribution, and a
// final p-way merge of the received sorted runs. The output is globally
// sorted in processor order but generally *unbalanced* — low-entropy
// inputs concentrate keys on few processors, which is exactly the
// sensitivity the paper contrasts with bitonic sort's obliviousness.
// It takes ownership of data; retrieve the output with m.Data().
func SampleSort[E element.Elem](m spmd.BackendOf[E], data [][]E) (SampleSortResult, error) {
	return SampleSortContext(context.Background(), m, data)
}

// SampleSortContext is SampleSort under a context: cancellation or
// deadline expiry aborts the run with a typed error (spmd.ErrCanceled
// / ErrDeadline); a processor panic surfaces as a *spmd.PanicError.
func SampleSortContext[E element.Elem](ctx context.Context, m spmd.BackendOf[E], data [][]E) (SampleSortResult, error) {
	P := m.P()
	if len(data) != P {
		return SampleSortResult{}, fmt.Errorf("psort: %d data slices for %d processors", len(data), P)
	}
	n := len(data[0])
	for i := range data {
		if len(data[i]) != n {
			return SampleSortResult{}, fmt.Errorf("psort: ragged data at processor %d", i)
		}
	}
	res, err := m.RunContext(ctx, data, SampleBody[E])
	if err != nil {
		return SampleSortResult{}, err
	}
	out := SampleSortResult{Result: res}
	for _, d := range m.Data() {
		if len(d) > out.MaxKeys {
			out.MaxKeys = len(d)
		}
	}
	return out, nil
}

// SampleBody is SampleSort's SPMD body, for a run in which every
// processor holds the same number of keys; an engine that sorts
// repeatedly binds it once, since a generic function value allocates.
// It sorts home, the processor's share, with the spare as the
// radix scratch, sends slices of home, and merges what it receives into
// the spare, grown to the largest share received.
func SampleBody[E element.Elem](pr *spmd.ProcOf[E]) {
	n := len(pr.Data)
	P := pr.P()
	s := stateOf(pr)
	home := pr.Data

	// Phase 1: local sort.
	s.spare = grow(s.spare, n)
	localsort.RadixSortTo(home, s.spare, false)
	pr.ChargeRadixSort(n)
	if P == 1 {
		return
	}

	// Phase 2: every processor contributes P-1 evenly spaced samples;
	// an all-gather gives everyone the full P(P-1) sample set, from
	// which each processor deterministically derives the same P-1
	// splitters, every (P-1)th sample — no separate broadcast step
	// needed.
	s.samples = grow(s.samples, (P+1)*(P-1))
	mine, all := s.samples[:P-1], s.samples[P-1:]
	for i := range mine {
		mine[i] = home[(i+1)*n/P]
	}
	for src, got := range pr.AllGather(mine) {
		copy(all[src*(P-1):], got)
	}
	slices.SortFunc(all, func(a, b E) int { return cmp.Compare(element.Bits(a), element.Bits(b)) })
	pr.ChargeCompute(pr.Costs().Merge * float64(len(all)))

	// Phase 3: partition the sorted local keys by the splitters (binary
	// searches) and redistribute. Keys equal to a splitter go right, so
	// duplicates of one value all land on one processor — the
	// low-entropy hazard of §5.5. (For records "equal" means equal
	// keys: all payloads of one key value land together.)
	msgs := pr.Outbox()
	lo := 0
	for q := range msgs {
		hi := n
		if q < P-1 {
			sp := all[(q+1)*(P-1)]
			hi = max(lo, sort.Search(n, func(j int) bool { return element.Less(sp, home[j]) }))
		}
		msgs[q] = home[lo:hi:hi]
		lo = hi
	}
	if pr.Long() {
		pr.ChargeCompute(pr.Costs().Pack * float64(n*pr.Words()))
	}
	in := pr.Exchange(msgs)

	// Phase 4: p-way merge of the received runs (each already sorted
	// ascending). The merge replaces a separate unpack pass — the §4.3
	// fusion applied to sample sort, as [AISS95] does. The runs are
	// views of the senders' homes, so the table is cleared after it.
	runs := s.runs[:0]
	total := 0
	for _, msg := range in {
		runs = append(runs, localsort.RunOf[E]{Keys: msg})
		total += len(msg)
	}
	s.spare = grow(s.spare, total)
	localsort.MergeRuns(s.spare, runs)
	clear(runs)
	s.runs = runs
	pr.Data = s.spare
	pr.ChargeMerge(total)
	pr.Barrier()
}
