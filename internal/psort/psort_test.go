package psort

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"parbitonic/element"
	"parbitonic/internal/machine"
	"parbitonic/internal/obs"
	"parbitonic/internal/spmd"
	"parbitonic/internal/workload"
)

func testMachine(p int) *machine.Machine {
	m, err := machine.New(machine.DefaultConfig(p))
	if err != nil {
		panic(err)
	}
	return m
}

func flatten[E element.Elem](data [][]E) []E {
	var out []E
	for _, d := range data {
		out = append(out, d...)
	}
	return out
}

func reference(data [][]uint32) []uint32 {
	want := flatten(data)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	return want
}

func copyData(data [][]uint32) [][]uint32 {
	out := make([][]uint32, len(data))
	for i := range data {
		out[i] = append([]uint32(nil), data[i]...)
	}
	return out
}

// eachElem runs one generic test body per element type, as subtests
// named after the type.
func eachElem(t *testing.T, u32, u64, f32, f64, kv func(*testing.T)) {
	for i, f := range []func(*testing.T){u32, u64, f32, f64, kv} {
		t.Run(element.Types()[i].String(), f)
	}
}

// sortOf runs sorter on a fresh workload of element type E and
// returns the result, the output per processor and the flat input.
// KV64 inputs carry globally unique payloads (workload.PerProcOf).
func sortOf[E element.Elem, R any](t *testing.T, sorter func(spmd.BackendOf[E], [][]E) (R, error), dist workload.Dist, p, n int, seed uint64) (R, [][]E, []E) {
	t.Helper()
	data := workload.PerProcOf[E](dist, p, n, seed)
	var in []E
	owned := make([][]E, p)
	for i := range data {
		in = append(in, data[i]...)
		owned[i] = slices.Clone(data[i])
	}
	m, err := machine.NewOf[E](machine.DefaultConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sorter(m, owned)
	if err != nil {
		t.Fatal(err)
	}
	return res, m.Data(), in
}

// checkSortedOf fails unless got is in's elements in ascending key
// order: the key sequence matches a reference sort, and every element,
// KV64 payload included, comes out exactly once.
func checkSortedOf[E element.Elem](t *testing.T, label string, got, in []E) {
	t.Helper()
	if len(got) != len(in) {
		t.Fatalf("%s: lost keys (%d vs %d)", label, len(got), len(in))
	}
	want := slices.Clone(in)
	slices.SortFunc(want, func(a, b E) int { return cmp.Compare(element.Bits(a), element.Bits(b)) })
	count := map[[2]uint64]int{}
	for i := range want {
		if element.Less(got[i], want[i]) || element.Less(want[i], got[i]) {
			t.Fatalf("%s: wrong at %d", label, i)
		}
		count[[2]uint64{element.Bits(in[i]), element.Aux(in[i])}]++
		count[[2]uint64{element.Bits(got[i]), element.Aux(got[i])}]--
	}
	for e, c := range count {
		if c != 0 {
			t.Fatalf("%s: element %x appears %+d times too often in the input", label, e, c)
		}
	}
}

func TestRadixSortSortsEverything(t *testing.T) {
	eachElem(t, testRadixSortSortsEverything[uint32], testRadixSortSortsEverything[uint64],
		testRadixSortSortsEverything[float32], testRadixSortSortsEverything[float64],
		testRadixSortSortsEverything[element.KV64])
}

func testRadixSortSortsEverything[E element.Elem](t *testing.T) {
	for _, d := range [][2]int{{0, 6}, {1, 5}, {2, 6}, {3, 4}, {4, 5}, {5, 6}} {
		lgP, lgn := d[0], d[1]
		p, n := 1<<uint(lgP), 1<<uint(lgn)
		for _, dist := range workload.Dists() {
			_, out, in := sortOf(t, RadixSort[E], dist, p, n, 77)
			checkSortedOf(t, fmt.Sprintf("radix lgP=%d lgn=%d %v", lgP, lgn, dist), flatten(out), in)
			// Radix output must be perfectly balanced.
			for pi, dd := range out {
				if len(dd) != n {
					t.Fatalf("radix proc %d holds %d keys, want %d", pi, len(dd), n)
				}
			}
		}
	}
}

func TestSampleSortSortsEverything(t *testing.T) {
	eachElem(t, testSampleSortSortsEverything[uint32], testSampleSortSortsEverything[uint64],
		testSampleSortSortsEverything[float32], testSampleSortSortsEverything[float64],
		testSampleSortSortsEverything[element.KV64])
}

func testSampleSortSortsEverything[E element.Elem](t *testing.T) {
	for _, d := range [][2]int{{0, 6}, {1, 5}, {2, 6}, {3, 5}, {4, 6}} {
		lgP, lgn := d[0], d[1]
		p, n := 1<<uint(lgP), 1<<uint(lgn)
		for _, dist := range workload.Dists() {
			res, out, in := sortOf(t, SampleSort[E], dist, p, n, 99)
			checkSortedOf(t, fmt.Sprintf("sample lgP=%d lgn=%d %v", lgP, lgn, dist), flatten(out), in)
			if res.MaxKeys < n {
				t.Fatalf("MaxKeys %d below balanced share %d", res.MaxKeys, n)
			}
		}
	}
}

// §5.5: low-entropy inputs unbalance sample sort severely; the uniform
// workload stays near-balanced.
func TestSampleSortImbalance(t *testing.T) {
	p, n := 8, 1<<10
	uni := workload.PerProc(workload.Uniform31, p, n, 5)
	m := testMachine(p)
	resU, err := SampleSort(m, copyData(uni))
	if err != nil {
		t.Fatal(err)
	}
	if resU.MaxKeys > 2*n {
		t.Errorf("uniform input should be near-balanced, max %d for share %d", resU.MaxKeys, n)
	}

	eq := workload.PerProc(workload.AllEqual, p, n, 5)
	m2 := testMachine(p)
	resE, err := SampleSort(m2, copyData(eq))
	if err != nil {
		t.Fatal(err)
	}
	if resE.MaxKeys != p*n {
		t.Errorf("all-equal input should land on one processor, max %d of %d", resE.MaxKeys, p*n)
	}
	if resE.Time <= resU.Time {
		t.Errorf("low entropy should slow sample sort: %v vs %v", resE.Time, resU.Time)
	}
}

// Sample sort should beat parallel radix sort on uniform keys (paper
// Figures 5.7/5.8: sample sort is the overall winner).
func TestSampleBeatsRadixOnUniform(t *testing.T) {
	p, n := 16, 1<<12
	data := workload.PerProc(workload.Uniform31, p, n, 6)
	m1 := testMachine(p)
	rs, err := RadixSort(m1, copyData(data))
	if err != nil {
		t.Fatal(err)
	}
	m2 := testMachine(p)
	ss, err := SampleSort(m2, copyData(data))
	if err != nil {
		t.Fatal(err)
	}
	if ss.Time >= rs.Time {
		t.Errorf("sample sort (%v) should beat radix sort (%v)", ss.Time, rs.Time)
	}
}

// The radix histogram exchange is a fixed cost: time per key must drop
// substantially as n grows.
func TestRadixFixedCostAmortizes(t *testing.T) {
	p := 8
	perKey := func(lgn int) float64 {
		n := 1 << uint(lgn)
		data := workload.PerProc(workload.Uniform31, p, n, 7)
		m := testMachine(p)
		res, err := RadixSort(m, data)
		if err != nil {
			t.Fatal(err)
		}
		return res.TimePerKey(p * n)
	}
	small, large := perKey(6), perKey(14)
	if large >= small/2 {
		t.Errorf("per-key time should amortize: small-n %v, large-n %v", small, large)
	}
}

func TestPSortRejectsBadShapes(t *testing.T) {
	m := testMachine(4)
	if _, err := RadixSort(m, make([][]uint32, 3)); err == nil {
		t.Error("radix: wrong slice count should error")
	}
	if _, err := SampleSort(m, make([][]uint32, 3)); err == nil {
		t.Error("sample: wrong slice count should error")
	}
	ragged := [][]uint32{make([]uint32, 4), make([]uint32, 4), make([]uint32, 4), make([]uint32, 3)}
	if _, err := RadixSort(m, copyData(ragged)); err == nil {
		t.Error("radix: ragged should error")
	}
	if _, err := SampleSort(m, copyData(ragged)); err == nil {
		t.Error("sample: ragged should error")
	}
}

func TestQuickBothSortersRandom(t *testing.T) {
	f := func(seed uint64) bool {
		rng := workload.NewRNG(seed)
		lgP := rng.Intn(4)
		lgn := 2 + rng.Intn(6)
		p, n := 1<<uint(lgP), 1<<uint(lgn)
		dist := workload.Dists()[rng.Intn(len(workload.Dists()))]
		data := workload.PerProc(dist, p, n, seed)
		want := reference(data)

		m1 := testMachine(p)
		if _, err := RadixSort(m1, copyData(data)); err != nil {
			return false
		}
		got1 := flatten(m1.Data())
		m2 := testMachine(p)
		if _, err := SampleSort(m2, copyData(data)); err != nil {
			return false
		}
		got2 := flatten(m2.Data())
		for i := range want {
			if got1[i] != want[i] || got2[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The span timeline makes §5.5's load imbalance directly visible:
// sample sort on a zero-entropy input idles most processors at
// barriers, while the uniform input keeps them busy.
func TestTraceShowsSampleSortImbalance(t *testing.T) {
	run := func(d workload.Dist) float64 {
		var rec obs.ChromeTrace
		cfg := machine.DefaultConfig(8)
		cfg.Sink = &rec
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		data := workload.PerProc(d, 8, 1<<10, 3)
		if _, err := SampleSort(m, copyData(data)); err != nil {
			t.Fatal(err)
		}
		if len(rec.Spans()) == 0 {
			t.Fatal("trace recorded nothing")
		}
		return rec.WaitShare()
	}
	uniform := run(workload.Uniform31)
	skewed := run(workload.AllEqual)
	if skewed <= uniform {
		t.Errorf("skewed input should idle processors more: wait share %.3f vs %.3f", skewed, uniform)
	}
	if skewed < 0.3 {
		t.Errorf("all-equal input should be dominated by waiting, got %.3f", skewed)
	}
}
