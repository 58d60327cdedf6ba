// Command bench runs the repository's pinned deterministic benchmark
// sweep and writes a schema-versioned BENCH_<name>.json snapshot: the
// simulated model time of every fixed shape and of the autotuner, per
// size × element type, plus a wall-clock microbench of the local
// kernels. CI runs it with -quick against the committed
// BENCH_baseline.json and fails on regression.
//
// Usage:
//
//	bench [-quick] [-out FILE] [-baseline FILE]
//
// Two gates, both on simulated model time, which is deterministic and
// host-independent:
//
//   - Autotuner gate (always): for every simulated (size, elem) group,
//     the Auto run must beat the worst fixed shape and land within 10%
//     of the best. The planner may not pick a bad shape, and must be
//     competitive with the best.
//   - Baseline gate (with -baseline): every simulated entry must match
//     the baseline within 0.1%. A mismatch means the cost model
//     changed; regenerate the baseline if that was intended.
//
// Kernel rows are host-dependent wall time, recorded for trend
// tracking and never gated. Native end-to-end timing is perfbench/'s
// job alone (BENCHMARK.json). See TUNING.md for how to read
// BENCH_*.json and when to regenerate the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"parbitonic"
	"parbitonic/element"
	"parbitonic/internal/bitseq"
	"parbitonic/internal/intbits"
	"parbitonic/internal/localsort"
	"parbitonic/internal/schedule"
	"parbitonic/internal/workload"
)

// BenchSchema and BenchVersion identify the snapshot format; Load
// rejects anything else, so readers never misinterpret a foreign or
// future file.
const (
	BenchSchema  = "parbitonic-bench"
	BenchVersion = 3 // v3: simulated and kernel rows only, no native end-to-end rows
)

// The gates' bars: the relative deviation of a simulated model time
// from the baseline, and how far above the best fixed shape the
// autotuner's choice may land.
const (
	simTolerance  = 0.001
	autoTolerance = 0.10
)

// Entry is one benchmarked configuration. US is model µs for a
// simulated row (one deterministic run) and the trimmed-mean wall µs
// for a kernel row, whose MinUS is its fastest rep.
type Entry struct {
	Backend string  `json:"backend"` // "simulated" or "kernel"
	Config  string  `json:"config"`  // "auto", "smart/p1", "cyclic-blocked/p2", ... or a kernel name
	Elem    string  `json:"elem"`
	Size    int     `json:"size"` // total keys
	US      float64 `json:"us"`
	MinUS   float64 `json:"min_us,omitempty"`
	// Plan, PlanConfig and PredictedUS are set for auto entries: what
	// the planner chose (PlanConfig in the fixed sweep's config-key
	// form, e.g. "smart/p1") and what it predicted, so snapshots
	// record mispredictions.
	Plan        string  `json:"plan,omitempty"`
	PlanConfig  string  `json:"plan_config,omitempty"`
	PredictedUS float64 `json:"predicted_us,omitempty"`
}

// Snapshot is the BENCH_*.json document.
type Snapshot struct {
	Schema  string  `json:"schema"`
	Version int     `json:"version"`
	Quick   bool    `json:"quick"`
	GoOS    string  `json:"goos"`
	GoArch  string  `json:"goarch"`
	CPUs    int     `json:"cpus"` // GOMAXPROCS of the sweep: the cores its kernel rows could use
	Entries []Entry `json:"entries"`
}

func main() {
	quick := flag.Bool("quick", false, "smaller sizes and fewer kernel reps (the CI sweep)")
	out := flag.String("out", "BENCH_host.json", "snapshot output path")
	baseline := flag.String("baseline", "", "compare against this committed snapshot and gate on regression")
	flag.Parse()

	snap, err := runSweep(*quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data, _ := json.MarshalIndent(snap, "", "  ")
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("bench: %d entries -> %s (quick=%v, %d CPUs)\n", len(snap.Entries), *out, *quick, snap.CPUs)

	failures := gateAuto(snap, autoTolerance)
	if *baseline != "" {
		base, err := loadSnapshot(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: baseline: %v\n", err)
			os.Exit(1)
		}
		failures = append(failures, compare(snap, base, simTolerance)...)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "bench: FAIL %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Println("bench: all gates passed")
}

// sweepSizes and sweepElems pin the sweep so every snapshot measures
// the same grid and baselines stay comparable.
func sweepSizes(quick bool) []int {
	if quick {
		return []int{1 << 10, 1 << 12}
	}
	return []int{1 << 12, 1 << 14, 1 << 16}
}

func sweepElems(quick bool) []element.Type {
	if quick {
		return []element.Type{element.TU32, element.TKV64}
	}
	return []element.Type{element.TU32, element.TU64, element.TKV64}
}

// kernelReps is the number of timed runs per kernel row, after one
// warmup.
func kernelReps(quick bool) int {
	if quick {
		return 3
	}
	return 5
}

// fixedShapes are the fixed configurations each group races: every
// algorithm the planner can choose, at P up to 4 (P=1 collapses them
// all to one sequential sort, so only smart runs there). Covering the
// full candidate set means the gate can rank the auto plan against
// every shape it could have picked.
func fixedShapes(size int) []parbitonic.Config {
	var out []parbitonic.Config
	algs := []parbitonic.Algorithm{
		parbitonic.SmartBitonic, parbitonic.CyclicBlockedBitonic, parbitonic.BlockedMergeBitonic,
		parbitonic.SampleSort, parbitonic.RadixSort,
	}
	for p := 1; p <= 4 && p <= size/2; p *= 2 {
		for _, alg := range algs {
			if p == 1 && alg != parbitonic.SmartBitonic {
				continue
			}
			out = append(out, parbitonic.Config{Processors: p, Algorithm: alg})
		}
	}
	return out
}

// shapeName renders a fixed shape's stable entry key.
func shapeName(cfg parbitonic.Config) string {
	var alg string
	switch cfg.Algorithm {
	case parbitonic.SmartBitonic:
		alg = "smart"
	case parbitonic.CyclicBlockedBitonic:
		alg = "cyclic-blocked"
	case parbitonic.BlockedMergeBitonic:
		alg = "blocked-merge"
	case parbitonic.SampleSort:
		alg = "sample"
	case parbitonic.RadixSort:
		alg = "radix"
	default:
		alg = cfg.Algorithm.String()
	}
	return fmt.Sprintf("%s/p%d", alg, cfg.Processors)
}

// elemGroups holds one element type's instantiations of the group
// runners, so the sweeps can loop over runtime element types.
type elemGroups struct {
	sim    func(size int) ([]Entry, error)
	kernel func(size, reps int) []Entry
}

func groupsOf[E element.Elem]() elemGroups {
	return elemGroups{sim: simGroupOf[E], kernel: kernelGroupOf[E]}
}

var groups = map[element.Type]elemGroups{
	element.TU32:  groupsOf[uint32](),
	element.TU64:  groupsOf[uint64](),
	element.TF32:  groupsOf[float32](),
	element.TF64:  groupsOf[float64](),
	element.TKV64: groupsOf[element.KV64](),
}

// runSweep runs the full grid and assembles the snapshot.
func runSweep(quick bool) (*Snapshot, error) {
	snap := &Snapshot{
		Schema: BenchSchema, Version: BenchVersion, Quick: quick,
		GoOS: runtime.GOOS, GoArch: runtime.GOARCH, CPUs: runtime.GOMAXPROCS(0),
	}
	for _, size := range sweepSizes(quick) {
		for _, et := range sweepElems(quick) {
			entries, err := groups[et].sim(size)
			if err != nil {
				return nil, fmt.Errorf("bench: %v size %d: %w", et, size, err)
			}
			snap.Entries = append(snap.Entries, entries...)
		}
	}
	snap.Entries = append(snap.Entries, kernelSweep(quick)...)
	return snap, nil
}

// kernelSweep measures the localsort kernel layer directly — the
// microbench section of the snapshot (backend "kernel"), one size per
// sweep. It times every element type, the float kernels included,
// even where the simulated grid covers fewer. Kernel times are wall µs
// and host-dependent; the gates leave them alone, they are recorded
// for trend tracking.
func kernelSweep(quick bool) []Entry {
	size := 1 << 20
	if quick {
		size = 1 << 16
	}
	var out []Entry
	for _, et := range element.Types() {
		out = append(out, groups[et].kernel(size, kernelReps(quick))...)
	}
	return out
}

// kernelGroupOf measures one element type's kernels: the hybrid radix
// sort of the paper's 31-bit keys and of keys that fill the type's key
// width, the full local sort (radix + direction fix-up), the bitonic
// merge of a bitonic sequence, the two-way merge, MergeRuns on two
// contiguous runs, and MergeRuns over FullSort's in-place deal views:
// every second key of two sorted arrays (round 0 at P=2), every fourth
// key of four (the crossing at P=4) and segments of two at stride 16 of
// eight (P=8's s=1, c=3 crossing) — the per-phase primitives every
// parallel run is built from.
func kernelGroupOf[E element.Elem](size, reps int) []Entry {
	keys := workload.Elems[E](workload.Uniform31, size, 1996)
	full := workload.FullWidth[E](size, 1996)
	work := make([]E, size)
	scratch := make([]E, size)

	// A bitonic input for the merge kernel: ascending then descending.
	bitonic := append([]E(nil), keys...)
	localsort.SortScratch(bitonic[:size/2], true, scratch)
	localsort.SortScratch(bitonic[size/2:], false, scratch)
	a := append([]E(nil), keys[:size/2]...)
	b := append([]E(nil), keys[size/2:]...)
	localsort.SortScratch(a, true, scratch)
	localsort.SortScratch(b, true, scratch)
	runs := []localsort.RunOf[E]{{Keys: a}, {Keys: b}}
	// Deal views of sorted arrays of size keys, read in place, the
	// senders' regions alternating in direction.
	views := func(lgP, remap int) []localsort.RunOf[E] {
		plan := schedule.New(intbits.Log2(size)+lgP, lgP, schedule.Head)[remap].Plan
		s, c, _ := plan.Deal()
		out := make([]localsort.RunOf[E], 1<<c)
		for q := range out {
			arr := workload.Elems[E](workload.Uniform31, size, 1997+uint64(q))
			localsort.SortScratch(arr, true, scratch)
			out[q] = localsort.DealtRun(arr, s, c, 0, q%2 != 0)
		}
		return out
	}
	strided, crossing, segmented := views(1, 0), views(2, 1), views(3, 2)

	var out []Entry
	for _, k := range []struct {
		name string
		f    func()
	}{
		{"radix", func() { copy(work, keys); localsort.RadixSortTo(work, scratch, false) }},
		{"radix-full", func() { copy(work, full); localsort.RadixSortTo(work, scratch, false) }},
		{"localsort", func() { copy(work, keys); localsort.SortScratch(work, true, scratch) }},
		{"bitonic-merge", func() { bitseq.SortBitonic(work, bitonic, true) }},
		{"merge-two", func() { localsort.MergeTwo(work, a, b) }},
		{"merge-runs", func() { localsort.MergeRuns(work, runs) }},
		{"merge-strided", func() { localsort.MergeRuns(work, strided) }},
		{"merge-crossing", func() { localsort.MergeRuns(work, crossing) }},
		{"merge-segmented", func() { localsort.MergeRuns(work, segmented) }},
	} {
		mean, min := measureKernel(reps, k.f)
		out = append(out, Entry{
			Backend: "kernel", Config: k.name,
			Elem: element.TypeOf[E]().String(), Size: size,
			US: mean, MinUS: min,
		})
	}
	return out
}

// measureKernel times an in-process kernel: one warmup, reps
// wall-clock measurements, then the trimmed mean (dropping the fastest
// and slowest when reps >= 5) and the minimum.
func measureKernel(reps int, f func()) (mean, min float64) {
	times := make([]float64, 0, reps)
	for i := 0; i <= reps; i++ {
		start := time.Now()
		f()
		if i == 0 {
			continue // warmup
		}
		times = append(times, float64(time.Since(start).Nanoseconds())/1e3)
	}
	sort.Float64s(times)
	lo, hi := 0, len(times)
	if len(times) >= 5 {
		lo, hi = 1, len(times)-1
	}
	sum := 0.0
	for _, t := range times[lo:hi] {
		sum += t
	}
	return sum / float64(hi-lo), times[0]
}

// simGroupOf runs one simulated (elem, size) group: every fixed shape
// plus the autotuner.
func simGroupOf[E element.Elem](size int) ([]Entry, error) {
	elem := element.TypeOf[E]().String()
	var entries []Entry
	for _, cfg := range fixedShapes(size) {
		us, err := modelTime[E](size, cfg)
		if err != nil {
			return nil, err
		}
		entries = append(entries, Entry{Backend: "simulated", Config: shapeName(cfg), Elem: elem, Size: size, US: us})
	}
	// Processors caps the planner's candidate P at the fixed sweep's
	// ceiling, so the auto plan (hence its model time, which the
	// baseline gate checks) cannot vary with the host's GOMAXPROCS.
	var plan parbitonic.Plan
	auto := parbitonic.Config{Auto: true, Processors: 4, Observe: func(r parbitonic.SortReport) {
		if r.Plan != nil {
			plan = *r.Plan
		}
	}}
	us, err := modelTime[E](size, auto)
	if err != nil {
		return nil, err
	}
	return append(entries, Entry{
		Backend: "simulated", Config: "auto", Elem: elem, Size: size, US: us,
		Plan:        plan.String(),
		PlanConfig:  shapeName(parbitonic.Config{Processors: plan.Processors, Algorithm: plan.Algorithm}),
		PredictedUS: plan.PredictedUS,
	}), nil
}

// modelTime runs one simulated sort of the pinned workload and returns
// its model time in µs.
func modelTime[E element.Elem](size int, cfg parbitonic.Config) (float64, error) {
	res, err := parbitonic.Sort(workload.Elems[E](workload.Uniform31, size, 1996), cfg)
	if err != nil {
		return 0, err
	}
	return res.Time, nil
}

// groupKey identifies a (backend, elem, size) gate group.
type groupKey struct {
	backend, elem string
	size          int
}

// entryKey identifies one entry across snapshots.
type entryKey struct {
	groupKey
	config string
}

// gateAuto enforces the autotuner acceptance bar on every simulated
// group: the auto run's model time beats the worst fixed shape and
// lands within tol of the best.
func gateAuto(s *Snapshot, tol float64) []string {
	type group struct {
		auto        *Entry
		best, worst float64
	}
	groups := map[groupKey]*group{}
	for i, e := range s.Entries {
		if e.Backend != "simulated" {
			continue
		}
		k := groupKey{e.Backend, e.Elem, e.Size}
		g := groups[k]
		if g == nil {
			g = &group{}
			groups[k] = g
		}
		if e.Config == "auto" {
			g.auto = &s.Entries[i]
			continue
		}
		if g.best == 0 || e.US < g.best {
			g.best = e.US
		}
		g.worst = max(g.worst, e.US)
	}
	var failures []string
	for k, g := range groups {
		if g.auto == nil || g.best == 0 {
			continue
		}
		got := g.auto.US
		if got > g.worst {
			failures = append(failures, fmt.Sprintf(
				"auto gate %s/%d: model time %.1fus slower than the worst fixed shape %.1fus (plan %s)",
				k.elem, k.size, got, g.worst, g.auto.Plan))
		}
		if got > g.best*(1+tol) {
			failures = append(failures, fmt.Sprintf(
				"auto gate %s/%d: model time %.1fus not within %.0f%% of the best fixed shape %.1fus (plan %s)",
				k.elem, k.size, got, tol*100, g.best, g.auto.Plan))
		}
	}
	sort.Strings(failures)
	return failures
}

// compare checks the host snapshot's simulated model times against the
// committed baseline over their common entries. They are
// deterministic, so a deviation beyond simTol is a failure.
func compare(host, base *Snapshot, simTol float64) []string {
	hi := map[entryKey]Entry{}
	for _, e := range host.Entries {
		hi[entryKey{groupKey{e.Backend, e.Elem, e.Size}, e.Config}] = e
	}
	var failures []string
	for _, be := range base.Entries {
		if be.Backend != "simulated" {
			continue
		}
		he, ok := hi[entryKey{groupKey{be.Backend, be.Elem, be.Size}, be.Config}]
		if !ok {
			continue // the quick sweep is a subset of the full grid
		}
		if dev := relDev(he.US, be.US); dev > simTol {
			failures = append(failures, fmt.Sprintf(
				"simulated %s/%d %s: model time %.2fus vs baseline %.2fus (%.2f%% > %.2f%%) — the cost model changed; regenerate the baseline if intended",
				be.Elem, be.Size, be.Config, he.US, be.US, dev*100, simTol*100))
		}
	}
	sort.Strings(failures)
	return failures
}

func relDev(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return 1
	}
	d := (a - b) / b
	if d < 0 {
		d = -d
	}
	return d
}

// loadSnapshot reads and validates a BENCH_*.json file.
func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != BenchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, BenchSchema)
	}
	if s.Version != BenchVersion {
		return nil, fmt.Errorf("%s: version %d, want %d — regenerate with this cmd/bench", path, s.Version, BenchVersion)
	}
	return &s, nil
}
