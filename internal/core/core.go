// Package core implements the parallel bitonic sort algorithms the
// paper builds and evaluates, on top of the simulated SPMD machine:
//
//   - Smart: the paper's contribution (Algorithm 1) — the smart-layout
//     remapping schedule of Chapter 3 with the optimized local
//     computation of Chapter 4.
//   - CyclicBlocked: the [CDMS94] baseline of §2.3, alternating blocked
//     and cyclic layouts (two remaps per stage).
//   - BlockedMerge: the [BLM+91] baseline of §5.3, a fixed blocked
//     layout with pairwise remote compare-split steps.
//
// Every algorithm starts from a blocked layout (data[p] holds keys
// p*n .. (p+1)*n-1) and finishes with the keys globally sorted
// ascending in a blocked layout.
package core

import (
	"context"
	"fmt"

	"parbitonic/element"
	"parbitonic/internal/addr"
	"parbitonic/internal/intbits"
	"parbitonic/internal/schedule"
	"parbitonic/internal/spmd"
)

// Algorithm selects a parallel sorting algorithm.
type Algorithm int

const (
	// Smart is Algorithm 1 of the paper.
	Smart Algorithm = iota
	// CyclicBlocked is the periodic blocked<->cyclic remapping of §2.3.
	CyclicBlocked
	// BlockedMerge is the fixed-blocked-layout baseline of [BLM+91].
	BlockedMerge
)

// String returns the CLI/metrics name of the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Smart:
		return "smart"
	case CyclicBlocked:
		return "cyclic-blocked"
	case BlockedMerge:
		return "blocked-merge"
	}
	return "unknown"
}

// Compute selects how the local phases between remaps execute.
type Compute int

const (
	// Optimized replaces compare-exchange simulation with the linear
	// sorts of Chapter 4 (Theorems 2 and 3).
	Optimized Compute = iota
	// Simulated executes every network step as compare-exchange sweeps —
	// the unoptimized local computation, kept as the correctness oracle
	// and for the Chapter 4 ablation.
	Simulated
	// FullSort is the fully fused production variant of §4.1 + §4.3
	// (Figures 4.5 and 4.8): in the usual regime
	// (lgP(lgP+1)/2 <= lg n) every local phase is a single p-way merge
	// of the incoming long messages — each message arrives as a sorted
	// run because the previous phase left every processor fully sorted
	// and the pack masks preserve that order — and packing is folded
	// into the sort's emission. No separate pack or unpack pass exists.
	FullSort
)

// String returns the CLI/metrics name of the compute mode.
func (c Compute) String() string {
	switch c {
	case Optimized:
		return "optimized"
	case Simulated:
		return "simulated"
	case FullSort:
		return "fullsort"
	}
	return "unknown"
}

// Options configures a sort.
type Options struct {
	Algorithm Algorithm // which parallel sort to run
	Compute   Compute   // how the local phases between remaps execute
	// Strategy shifts the smart remaps per Lemma 5. Optimized
	// computation requires Head (the default); other strategies run
	// with Simulated compute.
	Strategy schedule.Strategy
	// Fused folds the pack and unpack passes into the local sorts
	// (§4.3); only meaningful with Smart + Optimized + long messages.
	Fused bool
}

// FusedSmart returns the options of the fused smart sort at machine
// shape (p processors of n keys each), the fastest implementation and
// the one the native backend always runs: the FullSort p-way merges in
// the usual regime lgP(lgP+1)/2 <= lg n, and outside it the optimized
// local computation with pack/unpack fused into the local sorts.
func FusedSmart(p, n int) Options {
	opts := Options{Algorithm: Smart, Fused: true}
	if lgn, lgP := intbits.Log2(n), intbits.Log2(p); lgP*(lgP+1)/2 <= lgn {
		opts.Compute = FullSort
	}
	return opts
}

// Validate checks option consistency against a machine and data shape.
func (o Options) Validate(p, n int) error {
	if n < 1 || n&(n-1) != 0 {
		return fmt.Errorf("core: keys per processor must be a positive power of two, got %d", n)
	}
	if p > 1 && n < 2 && o.Algorithm != BlockedMerge {
		return fmt.Errorf("core: %v needs at least 2 keys per processor", o.Algorithm)
	}
	if o.Algorithm == CyclicBlocked && n < p {
		return fmt.Errorf("core: cyclic-blocked requires N >= P^2 (n=%d < P=%d), see §2.3", n, p)
	}
	if o.Compute != Simulated && o.Strategy != schedule.Head {
		return fmt.Errorf("core: %v computation requires the Head remap strategy", o.Compute)
	}
	if o.Fused && (o.Algorithm != Smart || o.Compute == Simulated) {
		return fmt.Errorf("core: fused pack/unpack requires Smart without step simulation")
	}
	if o.Compute == FullSort {
		if o.Algorithm != Smart {
			return fmt.Errorf("core: FullSort applies to the Smart algorithm only")
		}
		lgn, lgP := intbits.Log2(n), intbits.Log2(p)
		if p > 1 && lgP*(lgP+1)/2 > lgn {
			return fmt.Errorf("core: FullSort requires the usual regime lgP(lgP+1)/2 <= lg n (lgP=%d, lgn=%d)", lgP, lgn)
		}
	}
	return nil
}

// Sort runs the selected algorithm on machine m over data (one slice of
// n keys per processor, blocked layout). It takes ownership of data —
// the slices are consumed. On return the machine's processors hold the
// globally sorted keys in blocked layout; retrieve them with m.Data().
// A processor's keys may sit in one of its spare arrays, which the
// machine's next run writes, so copy them out before sorting again.
func Sort[E element.Elem](m spmd.BackendOf[E], data [][]E, opts Options) (spmd.Result, error) {
	return SortContext(context.Background(), m, data, opts)
}

// SortContext is Sort under a context: cancellation or deadline expiry
// aborts the run with a typed error (spmd.ErrCanceled / ErrDeadline)
// instead of blocking until completion; a processor panic surfaces as
// a *spmd.PanicError. The machine's data is unspecified after a
// failure.
func SortContext[E element.Elem](ctx context.Context, m spmd.BackendOf[E], data [][]E, opts Options) (spmd.Result, error) {
	p := m.P()
	if len(data) != p {
		return spmd.Result{}, fmt.Errorf("core: %d data slices for %d processors", len(data), p)
	}
	n := len(data[0])
	for i, d := range data {
		if len(d) != n {
			return spmd.Result{}, fmt.Errorf("core: processor %d holds %d keys, want %d", i, len(d), n)
		}
	}
	body, err := Compile[E](p, n, opts)
	if err != nil {
		return spmd.Result{}, err
	}
	return m.RunContext(ctx, data, body)
}

// Compile validates opts against the machine shape (p processors of n
// keys each) and builds the per-processor SPMD body, performing every
// shape-dependent construction — remap schedules, plans, gather
// tables — up front. The returned body is shared read-only by all
// processors and stays valid for any machine of the same shape, so an
// engine that sorts repeatedly can compile once and amortize both the
// construction and the closure allocation across runs.
func Compile[E element.Elem](p, n int, opts Options) (func(*spmd.ProcOf[E]), error) {
	if err := opts.Validate(p, n); err != nil {
		return nil, err
	}
	switch opts.Algorithm {
	case Smart:
		// Build the schedule (layouts + remap plans) once; it is shared
		// read-only by all processors.
		var sched []schedule.Remap
		if p > 1 {
			sched = schedule.New(intbits.Log2(n)+intbits.Log2(p), intbits.Log2(p), opts.Strategy)
		}
		return func(pr *spmd.ProcOf[E]) { smartSort(pr, sched, opts) }, nil
	case CyclicBlocked:
		var toCyclic, toBlocked *addr.RemapPlan
		if p > 1 {
			lgN, lgP := intbits.Log2(n)+intbits.Log2(p), intbits.Log2(p)
			toCyclic = addr.NewRemapPlan(addr.Blocked(lgN, lgP), addr.Cyclic(lgN, lgP))
			toBlocked = addr.NewRemapPlan(addr.Cyclic(lgN, lgP), addr.Blocked(lgN, lgP))
		}
		return func(pr *spmd.ProcOf[E]) { cyclicBlockedSort(pr, toCyclic, toBlocked, opts) }, nil
	case BlockedMerge:
		return func(pr *spmd.ProcOf[E]) { blockedMergeSort(pr) }, nil
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", opts.Algorithm)
	}
}

// ascFor returns the merge direction of stage `stage` for every element
// on processor proc under layout l. The direction bit (absolute-address
// bit `stage`) must be a processor bit of l, or beyond the address
// width (final stage), in which case the direction is ascending.
func ascFor(l *addr.Layout, proc, stage int) bool {
	if stage >= l.LgN {
		return true
	}
	for i, b := range l.ProcBits {
		if b == stage {
			return proc>>uint(i)&1 == 0
		}
	}
	panic(fmt.Sprintf("core: stage bit %d is not processor-determined under %s", stage, l.Name))
}

// simulateStep executes one network step on the local data of proc pr
// under layout l: compare-exchange every local pair whose absolute
// addresses differ in st.Bit, which must be a local bit of l. This is
// the unoptimized local computation (and the oracle for Chapter 4).
func simulateStep[E element.Elem](pr *spmd.ProcOf[E], l *addr.Layout, st schedule.Step) {
	localBit := -1
	for i, b := range l.LocalBits {
		if b == st.Bit {
			localBit = i
			break
		}
	}
	if localBit == -1 {
		panic(fmt.Sprintf("core: step bit %d is not local under %s", st.Bit, l.Name))
	}
	mask := 1 << uint(localBit)
	switch any(*new(E)).(type) {
	case uint32:
		simulateStepOf[E, uint32](pr.Data, pr.ID, l, st, mask)
	case uint64, element.KV64:
		simulateStepOf[E, uint64](pr.Data, pr.ID, l, st, mask)
	case float32:
		simulateStepOf[uint32, float32](element.Cast[uint32](pr.Data), pr.ID, l, st, mask)
	case float64:
		simulateStepOf[uint64, float64](element.Cast[uint64](pr.Data), pr.ID, l, st, mask)
	}
	pr.ChargeCompareExchange(len(pr.Data))
}

// simulateStepOf compare-exchanges each pair (lo, lo|mask): an
// ascending pair swaps when its keys are strictly out of order, a
// descending pair unless they are.
func simulateStepOf[S element.Elem, K element.Ord](data []S, id int, l *addr.Layout, st schedule.Step, mask int) {
	for lo := range data {
		if lo&mask != 0 {
			continue
		}
		hi := lo | mask
		abs := l.Abs(id, lo)
		asc := st.Ascending(abs)
		if (element.KeyOf[K](&data[lo]) > element.KeyOf[K](&data[hi])) == asc {
			data[lo], data[hi] = data[hi], data[lo]
		}
	}
}

// Flatten reassembles the machine's final blocked-layout data into one
// global slice.
func Flatten[E element.Elem](data [][]E) []E {
	var out []E
	for _, d := range data {
		out = append(out, d...)
	}
	return out
}
