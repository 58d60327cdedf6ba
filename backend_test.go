package parbitonic_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"parbitonic"
	"parbitonic/internal/workload"
)

func sortSlice(buf []uint32) {
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
}

var backends = []struct {
	name string
	b    parbitonic.Backend
}{
	{"simulated", parbitonic.Simulated},
	{"native", parbitonic.Native},
}

var allAlgorithms = []parbitonic.Algorithm{
	parbitonic.SmartBitonic,
	parbitonic.CyclicBlockedBitonic,
	parbitonic.BlockedMergeBitonic,
	parbitonic.SampleSort,
	parbitonic.RadixSort,
}

// TestBackendMatrix cross-checks every Algorithm x Backend pair against
// the sequential reference sort over several machine and data shapes.
func TestBackendMatrix(t *testing.T) {
	shapes := []struct{ p, n int }{
		{1, 256},
		{2, 128},
		{4, 64},
		{8, 64}, // CyclicBlocked needs N >= P*P: 512 >= 64
	}
	dists := []struct {
		name string
		d    workload.Dist
	}{
		{"uniform", workload.Uniform31},
		{"fewdistinct", workload.FewDistinct},
		{"reverse", workload.Reverse},
	}
	for _, bk := range backends {
		for _, alg := range allAlgorithms {
			for _, sh := range shapes {
				for _, di := range dists {
					keys := workload.Keys(di.d, sh.p*sh.n, 7)
					want := slices.Clone(keys)
					slices.Sort(want)
					res, err := parbitonic.Sort(keys, parbitonic.Config{
						Processors: sh.p,
						Algorithm:  alg,
						Backend:    bk.b,
					})
					if err != nil {
						t.Fatalf("%s/%v p=%d n=%d %s: %v", bk.name, alg, sh.p, sh.n, di.name, err)
					}
					if !slices.Equal(keys, want) {
						t.Fatalf("%s/%v p=%d n=%d %s: output differs from reference sort", bk.name, alg, sh.p, sh.n, di.name)
					}
					if res.Keys != sh.p*sh.n {
						t.Fatalf("%s/%v: Result.Keys=%d want %d", bk.name, alg, res.Keys, sh.p*sh.n)
					}
					if res.Time < 0 {
						t.Fatalf("%s/%v: negative time %v", bk.name, alg, res.Time)
					}
				}
			}
		}
	}
}

// TestSortPaddedProperty is a testing/quick property test: for random
// lengths and contents, SortPadded on either backend returns a
// permutation of the input in ascending order.
func TestSortPaddedProperty(t *testing.T) {
	for _, bk := range backends {
		prop := func(raw []uint32, pSel uint8) bool {
			if len(raw) == 0 {
				raw = []uint32{42}
			}
			if len(raw) > 1<<12 {
				raw = raw[:1<<12]
			}
			p := 1 << (pSel % 4) // 1, 2, 4, 8
			keys := slices.Clone(raw)
			if _, err := parbitonic.SortPadded(keys, parbitonic.Config{
				Processors: p,
				Backend:    bk.b,
			}); err != nil {
				t.Logf("%s: SortPadded(len=%d, p=%d): %v", bk.name, len(raw), p, err)
				return false
			}
			want := slices.Clone(raw)
			slices.Sort(want)
			return slices.Equal(keys, want)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("%s: %v", bk.name, err)
		}
	}
}

// TestSortPaddedMinShare pins the rounding edge SortPadded must handle:
// fewer keys than processors forces the per-processor share up to the
// bitonic minimum of two keys (n = 1 -> 2).
func TestSortPaddedMinShare(t *testing.T) {
	for _, bk := range backends {
		for _, tc := range []struct{ keys, p int }{
			{1, 2}, {1, 8}, {3, 4}, {5, 8}, {7, 8}, {9, 8},
		} {
			rng := rand.New(rand.NewSource(int64(tc.keys*100 + tc.p)))
			keys := make([]uint32, tc.keys)
			for i := range keys {
				keys[i] = rng.Uint32()
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			res, err := parbitonic.SortPadded(keys, parbitonic.Config{
				Processors: tc.p,
				Backend:    bk.b,
			})
			if err != nil {
				t.Fatalf("%s: SortPadded(%d keys, p=%d): %v", bk.name, tc.keys, tc.p, err)
			}
			if !slices.Equal(keys, want) {
				t.Fatalf("%s: SortPadded(%d keys, p=%d) not sorted: %v", bk.name, tc.keys, tc.p, keys)
			}
			if minTotal := 2 * tc.p; tc.keys < minTotal && res.Keys != minTotal {
				t.Fatalf("%s: padded run sorted %d keys, want the %d-key minimum", bk.name, res.Keys, minTotal)
			}
		}
	}
}

// TestNativeTracedRace runs a traced native sort with more workers than
// cores so goroutine interleaving, the buffer pool, the zero-copy
// exchange and the span collector are all exercised under the race
// detector (CI runs this file with -race).
func TestNativeTracedRace(t *testing.T) {
	for _, alg := range allAlgorithms {
		rec := new(parbitonic.TraceRecorder)
		keys := workload.Keys(workload.Uniform31, 8*256, 11)
		want := slices.Clone(keys)
		slices.Sort(want)
		res, err := parbitonic.Sort(keys, parbitonic.Config{
			Processors: 8,
			Algorithm:  alg,
			Backend:    parbitonic.Native,
			Obs:        rec,
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !slices.Equal(keys, want) {
			t.Fatalf("%v: traced native sort incorrect", alg)
		}
		if res.Time <= 0 {
			t.Fatalf("%v: wall time %v, want > 0", alg, res.Time)
		}
		if ws := rec.WaitShare(); ws < 0 || ws > 1 {
			t.Fatalf("%v: wait share %v out of [0,1]", alg, ws)
		}
		if rec.Timeline(60) == "" {
			t.Fatalf("%v: empty timeline from traced native run", alg)
		}
	}
}

// BenchmarkNativeVsStdlib pits the native-backend smart bitonic sort
// against the stdlib sequential sorts on 1M-16M uniform keys. With
// GOMAXPROCS >= 4 the parallel sort should win; on fewer cores the
// numbers show the oversubscription penalty honestly.
func BenchmarkNativeVsStdlib(b *testing.B) {
	for _, total := range []int{1 << 20, 1 << 22, 1 << 24} {
		src := workload.Keys(workload.Uniform31, total, 1996)
		buf := make([]uint32, total)

		b.Run(sizeName(total)+"/native-smart", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				if _, err := parbitonic.Sort(buf, parbitonic.Config{
					Processors: 4,
					Backend:    parbitonic.Native,
				}); err != nil {
					b.Fatal(err)
				}
			}
			reportNsPerKey(b, total)
		})
		b.Run(sizeName(total)+"/slices.Sort", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				slices.Sort(buf)
			}
			reportNsPerKey(b, total)
		})
		b.Run(sizeName(total)+"/sort.Slice", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				sortSlice(buf)
			}
			reportNsPerKey(b, total)
		})
	}
}

// reportNsPerKey normalizes the measured wall time to a per-key figure
// so differently-sized runs compare directly.
func reportNsPerKey(b *testing.B, keys int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(keys), "ns/key")
}

func sizeName(total int) string {
	switch {
	case total >= 1<<20:
		return itoa(total>>20) + "M"
	default:
		return itoa(total>>10) + "K"
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
