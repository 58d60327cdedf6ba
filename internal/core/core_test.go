package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"parbitonic/element"

	"parbitonic/internal/logp"
	"parbitonic/internal/machine"
	"parbitonic/internal/schedule"
	"parbitonic/internal/workload"
)

func testMachine(p int, long bool) *machine.Machine {
	return testMachineOf[uint32](p, long)
}

func testMachineOf[E element.Elem](p int, long bool) *machine.MachineOf[E] {
	cfg := machine.DefaultConfig(p)
	cfg.Long = long
	m, err := machine.NewOf[E](cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// eachElem runs one generic test body per element type, as subtests
// named after the type.
func eachElem(t *testing.T, u32, u64, f32, f64, kv func(*testing.T)) {
	for i, f := range []func(*testing.T){u32, u64, f32, f64, kv} {
		t.Run(element.Types()[i].String(), f)
	}
}

// runSort sorts a fresh uint32 workload and returns (result, output,
// input).
func runSort(t *testing.T, lgP, lgn int, d workload.Dist, seed uint64, long bool, opts Options) (machine.Result, []uint32, []uint32) {
	t.Helper()
	return runSortOf[uint32](t, lgP, lgn, d, seed, long, opts)
}

// runSortOf is runSort over element type E. KV64 inputs carry globally
// unique payloads (workload.PerProcOf).
func runSortOf[E element.Elem](t *testing.T, lgP, lgn int, d workload.Dist, seed uint64, long bool, opts Options) (machine.Result, []E, []E) {
	t.Helper()
	p, n := 1<<uint(lgP), 1<<uint(lgn)
	data := workload.PerProcOf[E](d, p, n, seed)
	in := slices.Clone(Flatten(data))
	// Algorithms take ownership; pass copies so `in` stays intact.
	owned := make([][]E, p)
	for i := range data {
		owned[i] = slices.Clone(data[i])
	}
	m := testMachineOf[E](p, long)
	res, err := Sort(m, owned, opts)
	if err != nil {
		t.Fatalf("Sort(%+v): %v", opts, err)
	}
	return res, Flatten(m.Data()), in
}

// bitsOf is an element's exact identity: -0 and +0 differ, and a KV64
// payload counts.
func bitsOf[E element.Elem](e E) [2]uint64 {
	return [2]uint64{element.Bits(e), element.Aux(e)}
}

// checkSorted fails unless got is in's elements in ascending key
// order: the key sequence matches a reference sort, and every element,
// KV64 payload included, comes out exactly once.
func checkSorted[E element.Elem](t *testing.T, label string, got, in []E) {
	t.Helper()
	if len(got) != len(in) {
		t.Fatalf("%s: got %d keys, want %d", label, len(got), len(in))
	}
	want := sortedByKey(in)
	for i := range want {
		if element.Less(got[i], want[i]) || element.Less(want[i], got[i]) {
			t.Fatalf("%s: wrong key at %d: got %v want %v", label, i, got[i], want[i])
		}
	}
	count := map[[2]uint64]int{}
	for i := range in {
		count[bitsOf(in[i])]++
		count[bitsOf(got[i])]--
	}
	for e, c := range count {
		if c != 0 {
			t.Fatalf("%s: element %x appears %+d times too often in the input", label, e, c)
		}
	}
}

// checkSameKeys fails unless a and b hold equal keys at every local
// position of every processor and the same elements per processor. Two
// computations may place equal-key KV64 records or -0/+0 differently.
func checkSameKeys[E element.Elem](t *testing.T, label string, a, b [][]E) {
	t.Helper()
	for pi := range a {
		for l := range a[pi] {
			if element.Less(a[pi][l], b[pi][l]) || element.Less(b[pi][l], a[pi][l]) {
				t.Fatalf("%s: proc %d local %d: %v vs %v", label, pi, l, a[pi][l], b[pi][l])
			}
		}
		checkSorted(t, label, sortedByKey(a[pi]), b[pi])
	}
}

// sortedByKey returns s sorted ascending by key.
func sortedByKey[E element.Elem](s []E) []E {
	out := slices.Clone(s)
	slices.SortStableFunc(out, func(a, b E) int { return cmp.Compare(element.Bits(a), element.Bits(b)) })
	return out
}

// Every algorithm, in both compute and message modes, must sort every
// distribution of every element type.
func TestAllAlgorithmsSortEverything(t *testing.T) {
	eachElem(t, testAllAlgorithmsSortEverything[uint32], testAllAlgorithmsSortEverything[uint64],
		testAllAlgorithmsSortEverything[float32], testAllAlgorithmsSortEverything[float64],
		testAllAlgorithmsSortEverything[element.KV64])
}

func testAllAlgorithmsSortEverything[E element.Elem](t *testing.T) {
	dims := [][2]int{{1, 1}, {1, 4}, {2, 2}, {2, 5}, {3, 3}, {3, 6}, {4, 4}, {4, 7}, {0, 5}, {3, 2}, {4, 2}, {5, 1}, {6, 2}}
	for _, alg := range []Algorithm{Smart, CyclicBlocked, BlockedMerge} {
		for _, comp := range []Compute{Optimized, Simulated} {
			if alg == BlockedMerge && comp == Simulated {
				continue // blocked-merge has a single implementation
			}
			for _, long := range []bool{true, false} {
				for _, d := range dims {
					lgP, lgn := d[0], d[1]
					if alg == CyclicBlocked && lgn < lgP {
						continue
					}
					for _, dist := range workload.Dists() {
						opts := Options{Algorithm: alg, Compute: comp}
						res, got, in := runSortOf[E](t, lgP, lgn, dist, 42, long, opts)
						label := alg.String() + "/" + comp.String() + "/" + dist.String()
						checkSorted(t, label, got, in)
						if res.Time <= 0 {
							t.Errorf("%s: nonpositive model time %v", label, res.Time)
						}
					}
				}
			}
		}
	}
}

// runBoth runs alg on a FullRange workload of element type E under
// both compute modes and returns the optimized and simulated outputs.
func runBoth[E element.Elem](t *testing.T, alg Algorithm, lgP, lgn int, seed uint64) (opt, sim [][]E) {
	t.Helper()
	p, n := 1<<uint(lgP), 1<<uint(lgn)
	run := func(comp Compute) [][]E {
		data := workload.PerProcOf[E](workload.FullRange, p, n, seed)
		owned := make([][]E, p)
		for i := range data {
			owned[i] = slices.Clone(data[i])
		}
		m := testMachineOf[E](p, true)
		if _, err := Sort(m, owned, Options{Algorithm: alg, Compute: comp}); err != nil {
			t.Fatal(err)
		}
		return m.Data()
	}
	return run(Optimized), run(Simulated)
}

// Theorems 2 and 3, end to end: the optimized local computation must
// produce exactly the same distributed data as simulating every network
// step, not merely a sorted result. uint32 keys must match exactly;
// for the other types the keys must match at every position and each
// processor must hold the same elements.
func TestOptimizedMatchesSimulatedExactly(t *testing.T) {
	eachElem(t, testOptimizedMatchesSimulated[uint32], testOptimizedMatchesSimulated[uint64],
		testOptimizedMatchesSimulated[float32], testOptimizedMatchesSimulated[float64],
		testOptimizedMatchesSimulated[element.KV64])
}

func testOptimizedMatchesSimulated[E element.Elem](t *testing.T) {
	// Includes n < P shapes: the paper notes the smart remapping "does
	// not impose any restriction on N and P" (§3.2), and Lemma 3's
	// special cases must hold there too.
	for _, d := range [][2]int{{2, 3}, {3, 4}, {4, 5}, {3, 7}, {5, 5}, {2, 8}, {4, 4}, {4, 2}, {5, 2}, {6, 1}} {
		lgP, lgn := d[0], d[1]
		for seed := uint64(1); seed <= 3; seed++ {
			opt, sim := runBoth[E](t, Smart, lgP, lgn, seed)
			checkSameKeys(t, fmt.Sprintf("lgP=%d lgn=%d seed=%d", lgP, lgn, seed), opt, sim)
		}
	}
}

// The cyclic-blocked optimized computation (strided bitonic merges +
// radix sorts) must also match its own step-by-step simulation exactly.
func TestCyclicBlockedOptimizedMatchesSimulated(t *testing.T) {
	eachElem(t, testCyclicBlockedOptimizedMatchesSimulated[uint32], testCyclicBlockedOptimizedMatchesSimulated[uint64],
		testCyclicBlockedOptimizedMatchesSimulated[float32], testCyclicBlockedOptimizedMatchesSimulated[float64],
		testCyclicBlockedOptimizedMatchesSimulated[element.KV64])
}

func testCyclicBlockedOptimizedMatchesSimulated[E element.Elem](t *testing.T) {
	// {3, 3} is n = P, whose cyclic phase sorts contiguous blocks.
	for _, d := range [][2]int{{3, 3}, {2, 3}, {3, 4}, {4, 5}, {3, 6}} {
		lgP, lgn := d[0], d[1]
		for seed := uint64(1); seed <= 3; seed++ {
			opt, sim := runBoth[E](t, CyclicBlocked, lgP, lgn, seed)
			checkSameKeys(t, fmt.Sprintf("lgP=%d lgn=%d seed=%d", lgP, lgn, seed), opt, sim)
		}
	}
}

// The measured communication counters must equal the analytic values of
// Chapter 3 / §3.4.
func TestSmartCountersMatchAnalysis(t *testing.T) {
	for _, d := range [][2]int{{2, 4}, {3, 5}, {4, 6}, {4, 8}, {5, 5}} {
		lgP, lgn := d[0], d[1]
		lgN := lgP + lgn
		opts := Options{Algorithm: Smart, Compute: Optimized}
		res, got, want := runSort(t, lgP, lgn, workload.Uniform31, 9, true, opts)
		checkSorted(t, "smart", got, want)
		sched := schedule.New(lgN, lgP, schedule.Head)
		n := 1 << uint(lgn)
		if res.Mean.Remaps != len(sched) {
			t.Errorf("lgP=%d lgn=%d: %d remaps, schedule says %d", lgP, lgn, res.Mean.Remaps, len(sched))
		}
		if res.Mean.VolumeSent != schedule.Volume(sched, n) {
			t.Errorf("lgP=%d lgn=%d: volume %d, analysis says %d", lgP, lgn, res.Mean.VolumeSent, schedule.Volume(sched, n))
		}
		if res.Mean.MessagesSent != schedule.Messages(sched) {
			t.Errorf("lgP=%d lgn=%d: messages %d, analysis says %d", lgP, lgn, res.Mean.MessagesSent, schedule.Messages(sched))
		}
	}
}

func TestCyclicBlockedCountersMatchAnalysis(t *testing.T) {
	for _, d := range [][2]int{{2, 4}, {3, 5}, {4, 6}} {
		lgP, lgn := d[0], d[1]
		n := 1 << uint(lgn)
		opts := Options{Algorithm: CyclicBlocked, Compute: Optimized}
		res, got, want := runSort(t, lgP, lgn, workload.Uniform31, 11, true, opts)
		checkSorted(t, "cyclic-blocked", got, want)
		m := logp.CyclicBlocked(lgP, n)
		if res.Mean.Remaps != m.R {
			t.Errorf("lgP=%d lgn=%d: %d remaps, want %d", lgP, lgn, res.Mean.Remaps, m.R)
		}
		if res.Mean.VolumeSent != m.V {
			t.Errorf("lgP=%d lgn=%d: volume %d, want %d", lgP, lgn, res.Mean.VolumeSent, m.V)
		}
		if res.Mean.MessagesSent != m.M {
			t.Errorf("lgP=%d lgn=%d: messages %d, want %d", lgP, lgn, res.Mean.MessagesSent, m.M)
		}
	}
}

func TestBlockedMergeCountersMatchAnalysis(t *testing.T) {
	for _, d := range [][2]int{{2, 4}, {3, 5}, {4, 6}} {
		lgP, lgn := d[0], d[1]
		n := 1 << uint(lgn)
		res, got, want := runSort(t, lgP, lgn, workload.Uniform31, 13, true, Options{Algorithm: BlockedMerge})
		checkSorted(t, "blocked-merge", got, want)
		m := logp.Blocked(lgP, n)
		if res.Mean.MessagesSent != m.M {
			t.Errorf("lgP=%d lgn=%d: messages %d, want %d", lgP, lgn, res.Mean.MessagesSent, m.M)
		}
		if res.Mean.VolumeSent != m.V {
			t.Errorf("lgP=%d lgn=%d: volume %d, want %d", lgP, lgn, res.Mean.VolumeSent, m.V)
		}
	}
}

// The headline result: smart < cyclic-blocked < blocked-merge in model
// time, at realistic sizes with long messages.
func TestAlgorithmOrdering(t *testing.T) {
	for _, d := range [][2]int{{4, 10}, {5, 10}, {4, 12}} {
		lgP, lgn := d[0], d[1]
		times := map[Algorithm]float64{}
		for _, alg := range []Algorithm{Smart, CyclicBlocked, BlockedMerge} {
			res, got, want := runSort(t, lgP, lgn, workload.Uniform31, 5, true, Options{Algorithm: alg})
			checkSorted(t, alg.String(), got, want)
			times[alg] = res.Time
		}
		if !(times[Smart] < times[CyclicBlocked] && times[CyclicBlocked] < times[BlockedMerge]) {
			t.Errorf("lgP=%d lgn=%d: ordering violated: smart=%.0f cyclic=%.0f blocked=%.0f",
				lgP, lgn, times[Smart], times[CyclicBlocked], times[BlockedMerge])
		}
	}
}

// Long messages must beat short messages (Table 5.3's direction), and
// fusing pack/unpack must beat not fusing (§4.3).
func TestMessageModeAndFusionOrdering(t *testing.T) {
	lgP, lgn := 4, 10
	long, _, _ := runSort(t, lgP, lgn, workload.Uniform31, 3, true, Options{Algorithm: Smart})
	short, _, _ := runSort(t, lgP, lgn, workload.Uniform31, 3, false, Options{Algorithm: Smart})
	if long.Time >= short.Time {
		t.Errorf("long messages (%.0f) should beat short (%.0f)", long.Time, short.Time)
	}
	fused, got, want := runSort(t, lgP, lgn, workload.Uniform31, 3, true, Options{Algorithm: Smart, Fused: true})
	checkSorted(t, "fused", got, want)
	if fused.Time >= long.Time {
		t.Errorf("fused (%.0f) should beat unfused (%.0f)", fused.Time, long.Time)
	}
	if fused.Sum.PackTime != 0 || fused.Sum.UnpackTime != 0 {
		t.Error("fused run should charge no pack/unpack time")
	}
}

// Remap-shift strategies (Lemma 5) must still sort, with simulated
// computation.
func TestStrategiesSort(t *testing.T) {
	for _, strat := range []schedule.Strategy{schedule.Tail, schedule.Middle1, schedule.Middle2} {
		for _, d := range [][2]int{{3, 4}, {4, 5}, {2, 6}} {
			opts := Options{Algorithm: Smart, Compute: Simulated, Strategy: strat}
			_, got, want := runSort(t, d[0], d[1], workload.FullRange, 8, true, opts)
			checkSorted(t, "strategy "+strat.String(), got, want)
		}
	}
}

// Tail must transfer no more than Head (Lemma 5) as measured, not just
// analytically.
func TestTailVolumeNoWorseThanHead(t *testing.T) {
	for _, d := range [][2]int{{4, 10}, {3, 9}, {4, 8}} {
		lgP, lgn := d[0], d[1]
		head, _, _ := runSort(t, lgP, lgn, workload.Uniform31, 2, true,
			Options{Algorithm: Smart, Compute: Simulated, Strategy: schedule.Head})
		tail, _, _ := runSort(t, lgP, lgn, workload.Uniform31, 2, true,
			Options{Algorithm: Smart, Compute: Simulated, Strategy: schedule.Tail})
		if tail.Mean.VolumeSent > head.Mean.VolumeSent {
			t.Errorf("lgP=%d lgn=%d: tail volume %d > head volume %d", lgP, lgn,
				tail.Mean.VolumeSent, head.Mean.VolumeSent)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		p, n int
		opts Options
	}{
		{4, 12, Options{}},                        // non power of two n
		{4, 0, Options{}},                         // empty
		{4, 1, Options{Algorithm: Smart}},         // n too small
		{8, 4, Options{Algorithm: CyclicBlocked}}, // n < P
		{4, 8, Options{Algorithm: Smart, Compute: Optimized, Strategy: schedule.Tail}},
		{4, 8, Options{Algorithm: CyclicBlocked, Fused: true}},
	}
	for i, c := range cases {
		if err := c.opts.Validate(c.p, c.n); err == nil {
			t.Errorf("case %d should fail validation: %+v", i, c)
		}
	}
	if err := (Options{Algorithm: Smart}).Validate(4, 8); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

func TestSortRejectsBadShapes(t *testing.T) {
	m := testMachine(4, true)
	if _, err := Sort(m, make([][]uint32, 3), Options{}); err == nil {
		t.Error("wrong processor count should error")
	}
	data := [][]uint32{make([]uint32, 4), make([]uint32, 4), make([]uint32, 4), make([]uint32, 2)}
	if _, err := Sort(m, data, Options{}); err == nil {
		t.Error("ragged data should error")
	}
}

func TestSingleProcessor(t *testing.T) {
	for _, alg := range []Algorithm{Smart, CyclicBlocked, BlockedMerge} {
		_, got, want := runSort(t, 0, 8, workload.FullRange, 21, true, Options{Algorithm: alg})
		checkSorted(t, "P=1 "+alg.String(), got, want)
	}
}

// Property: random shapes and seeds, all algorithms agree with the
// reference sort.
func TestQuickRandomConfigs(t *testing.T) {
	f := func(seed uint64) bool {
		rng := workload.NewRNG(seed)
		lgP := 1 + rng.Intn(4)
		lgn := lgP + rng.Intn(4) // keep n >= P so cyclic-blocked is legal
		alg := []Algorithm{Smart, CyclicBlocked, BlockedMerge}[rng.Intn(3)]
		comp := []Compute{Optimized, Simulated}[rng.Intn(2)]
		if alg == BlockedMerge {
			comp = Optimized
		}
		dist := workload.Dists()[rng.Intn(len(workload.Dists()))]
		p, n := 1<<uint(lgP), 1<<uint(lgn)
		data := workload.PerProc(dist, p, n, seed)
		want := append([]uint32(nil), Flatten(data)...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		owned := make([][]uint32, p)
		for i := range data {
			owned[i] = append([]uint32(nil), data[i]...)
		}
		m := testMachine(p, rng.Intn(2) == 0)
		if _, err := Sort(m, owned, Options{Algorithm: alg, Compute: comp}); err != nil {
			return false
		}
		got := Flatten(m.Data())
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// FullSort (§4.1 + §4.3 fully fused) must sort everything in the usual
// regime and transfer exactly the same volume as the canonical smart
// implementation, while charging strictly less time.
func TestFullSortMode(t *testing.T) {
	for _, d := range [][2]int{{1, 2}, {2, 4}, {3, 6}, {4, 10}, {5, 15}, {0, 6}} {
		lgP, lgn := d[0], d[1]
		for _, dist := range workload.Dists() {
			opts := Options{Algorithm: Smart, Compute: FullSort}
			res, got, want := runSort(t, lgP, lgn, dist, 17, true, opts)
			checkSorted(t, "fullsort/"+dist.String(), got, want)
			if res.Sum.PackTime != 0 || res.Sum.UnpackTime != 0 {
				t.Fatalf("FullSort must not charge pack/unpack time")
			}
		}
		optRes, _, _ := runSort(t, lgP, lgn, workload.Uniform31, 17, true,
			Options{Algorithm: Smart, Compute: Optimized})
		fsRes, _, _ := runSort(t, lgP, lgn, workload.Uniform31, 17, true,
			Options{Algorithm: Smart, Compute: FullSort})
		if fsRes.Mean.VolumeSent != optRes.Mean.VolumeSent || fsRes.Mean.Remaps != optRes.Mean.Remaps {
			t.Errorf("lgP=%d lgn=%d: FullSort comm counters differ from Optimized: %+v vs %+v",
				lgP, lgn, fsRes.Mean, optRes.Mean)
		}
		if lgP > 0 && fsRes.Time >= optRes.Time {
			t.Errorf("lgP=%d lgn=%d: FullSort (%v) should beat Optimized (%v)", lgP, lgn, fsRes.Time, optRes.Time)
		}
	}
}

// Outside the usual regime FullSort must be rejected, not silently
// wrong.
func TestFullSortRejectedOutsideRegime(t *testing.T) {
	if err := (Options{Algorithm: Smart, Compute: FullSort}).Validate(1<<4, 1<<3); err == nil {
		t.Error("lgP=4 lgn=3 should be outside the usual regime")
	}
	if err := (Options{Algorithm: CyclicBlocked, Compute: FullSort}).Validate(4, 64); err == nil {
		t.Error("FullSort must be Smart-only")
	}
}

// Per-remap messages of FullSort arrive as sorted runs — the §4.3
// precondition. Covered implicitly by sortedness above; here we check
// the stronger per-processor invariant: after every run the machine's
// final data is fully sorted per processor and globally.
func TestFullSortFinalLayoutBlockedSorted(t *testing.T) {
	lgP, lgn := 4, 12
	p, n := 1<<uint(lgP), 1<<uint(lgn)
	data := workload.PerProc(workload.Uniform31, p, n, 23)
	owned := make([][]uint32, p)
	for i := range data {
		owned[i] = append([]uint32(nil), data[i]...)
	}
	m := testMachine(p, true)
	if _, err := Sort(m, owned, Options{Algorithm: Smart, Compute: FullSort}); err != nil {
		t.Fatal(err)
	}
	var prev uint32
	for pi, d := range m.Data() {
		if len(d) != n {
			t.Fatalf("proc %d holds %d keys, want %d (blocked output)", pi, len(d), n)
		}
		for _, v := range d {
			if v < prev {
				t.Fatalf("global order violated at proc %d", pi)
			}
			prev = v
		}
	}
}
