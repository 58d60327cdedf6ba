package parbitonic_test

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"parbitonic"
	"parbitonic/element"
	"parbitonic/internal/workload"
)

// TestPaddedMaxValueRoundTrip pins the padding contract for every
// element type: SortPadded pads with copies of the input's largest
// element and strips exactly the pad count of bit-equal elements from
// the tail, so inputs holding the type's maximum, copies of the pad,
// or elements that order equal to the pad without being bit-equal to
// it must come back intact — the strip must never eat a genuine
// element. Lengths are chosen to force real padding on every processor
// count tried.
func TestPaddedMaxValueRoundTrip(t *testing.T) {
	t.Run("u32", func(t *testing.T) { testPaddedMax[uint32](t) })
	t.Run("u64", func(t *testing.T) { testPaddedMax[uint64](t) })
	t.Run("f32", func(t *testing.T) { testPaddedMax[float32](t) })
	t.Run("f64", func(t *testing.T) { testPaddedMax[float64](t) })
	t.Run("kv64", func(t *testing.T) { testPaddedMax[element.KV64](t) })
	// Both float zeros and nothing larger: the pad is +0.0, and -0.0,
	// which orders equal to it, is not padding.
	negZero := math.Copysign(0, -1)
	t.Run("f32-zeros", func(t *testing.T) {
		z := float32(negZero)
		checkPadded(t, "zeros", []float32{0, z, -1.5, z, 0, -2}, parbitonic.Simulated, 1, 4, 8)
	})
	t.Run("f64-zeros", func(t *testing.T) {
		checkPadded(t, "zeros", []float64{negZero, 0, -3, negZero, negZero}, parbitonic.Simulated, 1, 4, 8)
	})
	// Records sharing the largest key with different payloads: one of
	// them pads, and every one keeps its payload.
	t.Run("kv64-shared-max", func(t *testing.T) {
		recs := []element.KV64{{K: 7, V: 1}, {K: 3, V: 9}, {K: 7, V: 2}, {K: 7, V: 3}, {K: 1}, {K: 7, V: 1}}
		checkPadded(t, "shared-max", recs, parbitonic.Simulated, 1, 4, 8)
	})
	// A non-power-of-two count of u64 keys below 2^32 on the native
	// backend, with shares large enough for the radix hybrid.
	t.Run("u64-native", func(t *testing.T) {
		keys := workload.Elems[uint64](workload.Uniform31, 100003, 1996)
		checkPadded(t, "uniform31", keys, parbitonic.Native, 1, 2)
	})
}

func testPaddedMax[E element.Elem](t *testing.T) {
	mx := element.Max[E]()
	// workload.Elems yields values valid for E (floats need bit
	// patterns inside the non-NaN order window, so elements cannot be
	// minted from raw small integers here).
	base := workload.Elems[E](workload.Uniform31, 11, 1996)
	checkPadded(t, "max-interleaved", []E{mx, base[0], mx, base[1], mx}, parbitonic.Simulated, 1, 4, 8)
	checkPadded(t, "all-max", []E{mx, mx, mx, mx, mx, mx, mx}, parbitonic.Simulated, 1, 4, 8)
	checkPadded(t, "max-at-head", append([]E{mx}, base...), parbitonic.Simulated, 1, 4, 8)
	checkPadded(t, "no-max", base, parbitonic.Simulated, 1, 4, 8)
}

// checkPadded runs SortPadded over a copy of in on each processor
// count and checks that the output is ordered and holds exactly in's
// elements, bit for bit.
func checkPadded[E element.Elem](t *testing.T, name string, in []E, backend parbitonic.Backend, procs ...int) {
	t.Helper()
	images := func(s []E) [][2]uint64 {
		out := make([][2]uint64, len(s))
		for i, e := range s {
			out[i] = [2]uint64{element.Bits(e), element.Aux(e)}
		}
		slices.SortFunc(out, func(a, b [2]uint64) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
		return out
	}
	want := images(in)
	for _, p := range procs {
		got := slices.Clone(in)
		if parbitonic.PaddedSize(len(got), p) == len(got) {
			t.Fatalf("p=%d %s: length %d needs no padding, test is vacuous", p, name, len(got))
		}
		if _, err := parbitonic.SortPadded(got, parbitonic.Config{Processors: p, Backend: backend}); err != nil {
			t.Fatalf("p=%d %s: SortPadded: %v", p, name, err)
		}
		for i := 1; i < len(got); i++ {
			if element.Less(got[i], got[i-1]) {
				t.Fatalf("p=%d %s: out of order at %d: %v after %v", p, name, i, got[i], got[i-1])
			}
		}
		if !slices.Equal(images(got), want) {
			t.Fatalf("p=%d %s: output is not the input multiset", p, name)
		}
	}
}

// TestPaddedMaxKeyRecordsKeepPayloads is the record-mode sharp edge of
// the strip: KV64 records whose key equals the padding sentinel's key
// but whose payloads differ are NOT padding and must all survive with
// their payloads intact.
func TestPaddedMaxKeyRecordsKeepPayloads(t *testing.T) {
	maxK := ^uint64(0)
	recs := []parbitonic.KV64{
		{K: maxK, V: 1}, {K: 5, V: 10}, {K: maxK, V: 2}, {K: 0, V: 11}, {K: maxK, V: 3},
	}
	if _, err := parbitonic.SortPadded(recs, parbitonic.Config{Processors: 4}); err != nil {
		t.Fatalf("SortPadded: %v", err)
	}
	if recs[0] != (parbitonic.KV64{K: 0, V: 11}) || recs[1] != (parbitonic.KV64{K: 5, V: 10}) {
		t.Fatalf("non-max records misplaced: %v", recs)
	}
	seen := map[uint64]bool{}
	for _, r := range recs[2:] {
		if r.K != maxK {
			t.Fatalf("expected max-key record, got %v", r)
		}
		if r.V != 1 && r.V != 2 && r.V != 3 {
			t.Fatalf("max-key record carries foreign payload: %v", r)
		}
		if seen[r.V] {
			t.Fatalf("payload %d duplicated: %v", r.V, recs)
		}
		seen[r.V] = true
	}
}
