package tune

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"parbitonic/element"
	"parbitonic/internal/localsort"
	"parbitonic/internal/native"
	"parbitonic/internal/psort"
	"parbitonic/internal/spmd"
	"parbitonic/internal/workload"
)

// Options configures a calibration run.
type Options struct {
	// Quick trades accuracy for speed: smaller inputs, fewer
	// repetitions. Meant for CI smoke runs; interactive calibration
	// should leave it false.
	Quick bool
	// Seed seeds the deterministic workload generator; 0 means 1.
	Seed uint64
}

// Calibrate microbenchmarks the host and returns a machine profile:
// per-element kernel costs for every element type (radix pass, linear
// merge, bulk copy and one parallel radix digit round — measured with
// warmup and trimmed means) and the native backend's two
// synchronization costs, the wall time of the smallest parallel run
// and of one empty PC.Barrier round trip on an idle engine at the
// largest power-of-two P <= min(GOMAXPROCS, 8) (see syncCosts). A host
// with GOMAXPROCS < 2 cannot run a parallel barrier and keeps the
// Fallback values, with SyncProcs 0. The context aborts the engine
// runs; kernel microbenchmarks check it between measurements.
func Calibrate(ctx context.Context, opts Options) (*Profile, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	// The full size stays clear of localsort's layout switch at 2^16
	// (radixLargeMin): there a uint32 radix sort runs the hybrid
	// layout over regions too small to pay for its tables and measures
	// 2.5–4x its per-pass cost at 2^12–2^15 and 2^18–2^20.
	n, reps := 1<<18, 7
	if opts.Quick {
		n, reps = 1<<14, 3
	}

	p := &Profile{
		Schema:    ProfileSchema,
		Version:   ProfileVersion,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Quick:     opts.Quick,
		Source:    "calibrated",
		Kernels:   make(map[string]KernelCosts),
	}
	hostStamp(p)

	for _, t := range element.Types() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var k KernelCosts
		var err error
		switch t {
		case element.TU32:
			k, err = kernelCosts[uint32](ctx, n, reps, opts.Seed)
		case element.TU64:
			k, err = kernelCosts[uint64](ctx, n, reps, opts.Seed)
		case element.TF32:
			k, err = kernelCosts[float32](ctx, n, reps, opts.Seed)
		case element.TF64:
			k, err = kernelCosts[float64](ctx, n, reps, opts.Seed)
		case element.TKV64:
			k, err = kernelCosts[element.KV64](ctx, n, reps, opts.Seed)
		}
		if err != nil {
			return nil, err
		}
		p.Kernels[t.String()] = k
	}

	fb := Fallback()
	p.BarrierNS, p.RunNS = fb.BarrierNS, fb.RunNS
	if procs := syncProcs(); procs >= 2 {
		barrier, run, err := syncCosts(ctx, procs, reps)
		if err != nil {
			return nil, err
		}
		p.BarrierNS, p.RunNS, p.SyncProcs = barrier, run, procs
	}

	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("tune: calibration produced an invalid profile: %w", err)
	}
	return p, nil
}

// kernelCosts measures the four local kernels for element type E over
// n-element inputs, reps times each, returning trimmed means in
// nanoseconds per element.
func kernelCosts[E element.Elem](ctx context.Context, n, reps int, seed uint64) (KernelCosts, error) {
	base := workload.Elems[E](workload.FullRange, n, seed)
	buf := make([]E, n)
	dst := make([]E, n)

	// Sorted ascending halves for the merge kernel; rebuilt fresh per
	// measurement is unnecessary (MergeTwo does not mutate its inputs).
	a := append([]E(nil), base[:n/2]...)
	b := append([]E(nil), base[n/2:]...)
	localsort.RadixSort(a)
	localsort.RadixSort(b)

	passes := localsort.RadixPassesOf[E]()
	radix, err := measure(ctx, reps, func() {
		copy(buf, base)
	}, func() {
		localsort.RadixSort(buf)
	})
	if err != nil {
		return KernelCosts{}, err
	}
	merge, err := measure(ctx, reps, nil, func() {
		localsort.MergeTwo(dst, a, b)
	})
	if err != nil {
		return KernelCosts{}, err
	}
	cp, err := measure(ctx, reps, nil, func() {
		copy(dst, base)
	})
	if err != nil {
		return KernelCosts{}, err
	}
	round, procs, err := radixRound(ctx, reps, base)
	if err != nil {
		return KernelCosts{}, err
	}

	k := KernelCosts{
		RadixPassNS:  radix / float64(n) / float64(passes),
		MergeNS:      merge / float64(n),
		CopyNS:       cp / float64(n),
		RadixRoundNS: round / float64(n/procs) / float64(passes),
	}
	// Clock-resolution floor: a pass can measure as ~0 on very fast
	// hosts with quick sizes; a zero cost would make the planner treat
	// the kernel as free.
	const floorNS = 0.01
	if k.RadixPassNS < floorNS {
		k.RadixPassNS = floorNS
	}
	if k.MergeNS < floorNS {
		k.MergeNS = floorNS
	}
	if k.CopyNS < floorNS {
		k.CopyNS = floorNS
	}
	if k.RadixRoundNS < floorNS {
		k.RadixRoundNS = floorNS
	}
	return k, nil
}

// radixRound times the parallel radix sort's own body, all of its
// digit rounds, on a native engine of syncProcs processors that share
// base: each round's digit count, histogram exchange, scatter into the
// send array, key exchange and scatter back home run as a parallel
// plan runs them, peers' reads and barrier waits included (a round at
// P=2 measured 1.3× one at P=1 on a 2-vCPU host). It returns the
// trimmed mean in nanoseconds per sort of base and the processor count.
func radixRound[E element.Elem](ctx context.Context, reps int, base []E) (float64, int, error) {
	procs := syncProcs()
	eng, err := native.NewOf[E](native.Config{P: procs})
	if err != nil {
		return 0, 0, err
	}
	defer eng.Close()
	data := make([][]E, procs)
	share := len(base) / procs
	var runErr error
	ns, err := measure(ctx, reps, func() {
		for q := range data {
			data[q] = append(data[q][:0], base[q*share:(q+1)*share]...)
		}
	}, func() {
		if _, err := psort.RadixSortContext(ctx, eng, data); err != nil && runErr == nil {
			runErr = err
		}
	})
	if err == nil {
		err = runErr
	}
	return ns, procs, err
}

// measure times fn reps times (plus one warmup), running setup
// untimed before each, and returns the trimmed mean (see trimmedMean)
// in nanoseconds.
func measure(ctx context.Context, reps int, setup, fn func()) (float64, error) {
	if setup != nil {
		setup()
	}
	fn() // warmup
	samples := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if setup != nil {
			setup()
		}
		t0 := time.Now()
		fn()
		samples = append(samples, float64(time.Since(t0).Nanoseconds()))
	}
	return trimmedMean(samples), nil
}

// trimmedMean sorts samples in place and averages them: with five or
// more the fastest and slowest are dropped, otherwise the median is
// used.
func trimmedMean(samples []float64) float64 {
	sort.Float64s(samples)
	if len(samples) >= 5 {
		samples = samples[1 : len(samples)-1]
	} else if len(samples) >= 3 {
		samples = samples[len(samples)/2 : len(samples)/2+1]
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	return sum / float64(len(samples))
}

// syncProcs is the engine size synchronization is timed at: the
// largest power of two <= min(GOMAXPROCS, 8).
func syncProcs() int {
	p := min(runtime.GOMAXPROCS(0), 8)
	for p&(p-1) != 0 {
		p &= p - 1
	}
	return p
}

// syncCosts times synchronization on an idle native engine of p
// processors and returns the trimmed means of one barrier and one run
// in nanoseconds. Each of reps barrier samples (after one warmup)
// times syncRounds empty PC.Barrier round trips inside one run,
// measured by processor 0 after a start barrier. A run is the
// smallest parallel sort, a sample sort of two keys per processor:
// dispatch, join and one all-to-all round's fixed work (sample gather,
// exchange, barriers that park and wake), which an empty run body
// leaves out.
func syncCosts(ctx context.Context, p, reps int) (barrier, run float64, err error) {
	const syncRounds = 1000
	eng, err := native.NewOf[uint32](native.Config{P: p})
	if err != nil {
		return 0, 0, err
	}
	defer eng.Close()
	barriers := make([]float64, 0, reps)
	for i := 0; i <= reps; i++ {
		var elapsed time.Duration
		if _, err := eng.RunContext(ctx, nil, func(pr *spmd.ProcOf[uint32]) {
			pr.Barrier() // every processor is running
			t0 := time.Now()
			for range syncRounds {
				pr.Barrier()
			}
			if pr.ID == 0 {
				elapsed = time.Since(t0)
			}
		}); err != nil {
			return 0, 0, err
		}
		if i > 0 { // run 0 is the warmup
			barriers = append(barriers, float64(elapsed.Nanoseconds())/syncRounds)
		}
	}

	keys := make([][]uint32, p)
	var runErr error
	run, err = measure(ctx, reps, func() {
		for q := range keys {
			keys[q] = []uint32{2, 1}
		}
	}, func() {
		if _, err := psort.SampleSortContext(ctx, eng, keys); err != nil && runErr == nil {
			runErr = err
		}
	})
	if err == nil {
		err = runErr
	}
	return trimmedMean(barriers), run, err
}
