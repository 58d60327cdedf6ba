package psort

import (
	"sort"
	"testing"
	"testing/quick"

	"parbitonic/internal/machine"
	"parbitonic/internal/obs"
	"parbitonic/internal/workload"
)

func testMachine(p int) *machine.Machine {
	m, err := machine.New(machine.DefaultConfig(p))
	if err != nil {
		panic(err)
	}
	return m
}

func flatten(data [][]uint32) []uint32 {
	var out []uint32
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

func TestRadixSortSortsEverything(t *testing.T) {
	for _, d := range [][2]int{{0, 6}, {1, 5}, {2, 6}, {3, 4}, {4, 5}, {5, 6}} {
		lgP, lgn := d[0], d[1]
		p, n := 1<<uint(lgP), 1<<uint(lgn)
		for _, dist := range workload.Dists() {
			data := workload.PerProc(dist, p, n, 77)
			want := reference(data)
			m := testMachine(p)
			if _, err := RadixSort(m, copyData(data)); err != nil {
				t.Fatal(err)
			}
			got := flatten(m.Data())
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("radix lgP=%d lgn=%d %v: wrong at %d", lgP, lgn, dist, i)
				}
			}
			// Radix output must be perfectly balanced.
			for pi, dd := range m.Data() {
				if len(dd) != n {
					t.Fatalf("radix proc %d holds %d keys, want %d", pi, len(dd), n)
				}
			}
		}
	}
}

func TestSampleSortSortsEverything(t *testing.T) {
	for _, d := range [][2]int{{0, 6}, {1, 5}, {2, 6}, {3, 5}, {4, 6}} {
		lgP, lgn := d[0], d[1]
		p, n := 1<<uint(lgP), 1<<uint(lgn)
		for _, dist := range workload.Dists() {
			data := workload.PerProc(dist, p, n, 99)
			want := reference(data)
			m := testMachine(p)
			res, err := SampleSort(m, copyData(data))
			if err != nil {
				t.Fatal(err)
			}
			got := flatten(m.Data())
			if len(got) != len(want) {
				t.Fatalf("sample lgP=%d lgn=%d %v: lost keys (%d vs %d)", lgP, lgn, dist, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("sample lgP=%d lgn=%d %v: wrong at %d", lgP, lgn, dist, i)
				}
			}
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
