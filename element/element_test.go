package element

import (
	"math"
	"sort"
	"testing"
)

// checkImageOrder verifies that Bits order agrees with Less order and
// that FromBits(Bits, Aux) round-trips, over a fixed sample of values.
func checkImageOrder[E Elem](t *testing.T, vals []E) {
	t.Helper()
	for _, a := range vals {
		if got := FromBits[E](Bits(a), Aux(a)); got != a {
			t.Fatalf("FromBits(Bits(%v)) = %v", a, got)
		}
		if Less(a, Max[E]()) != (a != Max[E]()) {
			t.Fatalf("Max ordering wrong for %v", a)
		}
		for _, b := range vals {
			if Less(a, b) != (Bits(a) < Bits(b)) {
				t.Fatalf("image order disagrees with Less for %v, %v", a, b)
			}
		}
	}
}

func TestImageOrderAndRoundTrip(t *testing.T) {
	checkImageOrder(t, []uint32{0, 1, 7, 1 << 31, ^uint32(0) - 1, ^uint32(0)})
	checkImageOrder(t, []uint64{0, 1, 1 << 40, ^uint64(0)})
	checkImageOrder(t, []float32{float32(math.Inf(-1)), -2.5, -0, 0, 1.5, float32(math.Inf(1))})
	checkImageOrder(t, []float64{math.Inf(-1), -1e300, -0.25, 0, 3.75, math.Inf(1)})
	checkImageOrder(t, []KV64{{K: 0, V: 9}, {K: 1, V: 8}, {K: 1 << 60, V: 7}, {K: ^uint64(0), V: ^uint64(0)}})
}

func TestNegativeZeroImages(t *testing.T) {
	// -0.0 and +0.0 compare equal under <, and their images must be
	// adjacent so no third value sorts between them.
	nz, pz := Bits(float64(math.Copysign(0, -1))), Bits(float64(0))
	if nz+1 != pz {
		t.Fatalf("float64 zero images not adjacent: %#x, %#x", nz, pz)
	}
}

func TestFloatImageIsSortable(t *testing.T) {
	vals := []float64{3, -1, math.Inf(1), -0.5, 0, math.Inf(-1), 2.25}
	imgs := make([]uint64, len(vals))
	for i, v := range vals {
		imgs[i] = Bits(v)
	}
	sort.Slice(imgs, func(i, j int) bool { return imgs[i] < imgs[j] })
	sort.Float64s(vals)
	for i := range vals {
		if got := FromBits[float64](imgs[i], 0); got != vals[i] {
			t.Fatalf("image sort diverges at %d: %v vs %v", i, got, vals[i])
		}
	}
}

func TestWidthWordsKeyBits(t *testing.T) {
	if Width[uint32]() != 4 || Width[float64]() != 8 || Width[KV64]() != 16 {
		t.Fatal("Width wrong")
	}
	if Words[uint32]() != 1 || Words[uint64]() != 2 || Words[KV64]() != 4 {
		t.Fatal("Words wrong")
	}
	if KeyBits[float32]() != 32 || KeyBits[KV64]() != 64 {
		t.Fatal("KeyBits wrong")
	}
	for _, ty := range Types() {
		if got, err := ParseType(ty.String()); err != nil || got != ty {
			t.Fatalf("ParseType(%v) = %v, %v", ty, got, err)
		}
	}
	if TypeOf[uint32]() != TU32 || TypeOf[KV64]() != TKV64 || TypeOf[float64]() != TF64 {
		t.Fatal("TypeOf wrong")
	}
	if TU32.Width() != 4 || TKV64.Width() != 16 || TU64.KeyBits() != 64 {
		t.Fatal("Type accessors wrong")
	}
}

func TestCastRoundTrip(t *testing.T) {
	f := []float32{1.5, -2.25, 0}
	u := Cast[uint32](f)
	if len(u) != len(f) {
		t.Fatal("Cast length")
	}
	u[0] = math.Float32bits(8.5)
	if f[0] != 8.5 {
		t.Fatal("Cast does not alias backing array")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Cast between unequal widths did not panic")
		}
	}()
	_ = Cast[uint64](f)
}

// checkImages verifies that ToImages leaves each element's storage
// holding Bits(e) and that FromImages restores the elements bit for
// bit.
func checkImages[E Elem, U Uint](t *testing.T, vals []E) {
	t.Helper()
	s := append([]E(nil), vals...)
	ToImages(s)
	for i, v := range vals {
		if got := KeyOf[U](&s[i]); uint64(got) != Bits(v) {
			t.Fatalf("ToImages(%v) = %#x, want %#x", v, got, Bits(v))
		}
	}
	FromImages(s)
	for i, v := range vals {
		if Bits(s[i]) != Bits(v) || Aux(s[i]) != Aux(v) {
			t.Fatalf("FromImages(ToImages(%v)) = %v", v, s[i])
		}
	}
}

func TestBulkImagesRoundTrip(t *testing.T) {
	checkImages[uint32, uint32](t, []uint32{0, 7, ^uint32(0)})
	checkImages[uint64, uint64](t, []uint64{0, 1 << 40, ^uint64(0)})
	checkImages[float32, uint32](t, []float32{float32(math.Inf(-1)), -2.5, float32(math.Copysign(0, -1)), 0, 1.5, float32(math.Inf(1))})
	checkImages[float64, uint64](t, []float64{math.Inf(-1), -1e300, math.Copysign(0, -1), 0, 3.75, math.Inf(1)})
	checkImages[KV64, uint64](t, []KV64{{K: 3, V: 9}, {K: ^uint64(0), V: 1}})
}

// TestKeyOf reads every element's key through its storage view.
func TestKeyOf(t *testing.T) {
	kv := []KV64{{K: 5, V: 9}}
	if k := KeyOf[uint64](&kv[0]); k != 5 {
		t.Fatalf("KV64 key = %d, want 5", k)
	}
	f := Cast[uint32]([]float32{-2.5})
	if k := KeyOf[float32](&f[0]); k != -2.5 {
		t.Fatalf("float32 key over uint32 storage = %v, want -2.5", k)
	}
	d := Cast[uint64]([]float64{1e300})
	if k := KeyOf[float64](&d[0]); k != 1e300 {
		t.Fatalf("float64 key over uint64 storage = %v, want 1e300", k)
	}
	u := []uint32{7}
	if k := KeyOf[uint32](&u[0]); k != 7 {
		t.Fatalf("uint32 key = %d, want 7", k)
	}
}

func TestRecastPanicsOnSizeMismatch(t *testing.T) {
	x := []float32{1}
	if got := *Recast[[]uint32](&x); got[0] != math.Float32bits(1) {
		t.Fatalf("Recast view = %#x", got[0])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Recast between unequal sizes did not panic")
		}
	}()
	_ = Recast[uint64](&x[0])
}

func TestWireRoundTrip(t *testing.T) {
	b := make([]byte, 16)
	Put(b, KV64{K: 0x0102030405060708, V: 0x1112131415161718})
	if b[0] != 0x08 || b[8] != 0x18 {
		t.Fatal("Put not little-endian key-then-payload")
	}
	if got := Get[KV64](b); got != (KV64{K: 0x0102030405060708, V: 0x1112131415161718}) {
		t.Fatalf("Get = %v", got)
	}
	Put(b, float64(-3.75))
	if got := Get[float64](b); got != -3.75 {
		t.Fatalf("Get float64 = %v", got)
	}
	Put(b, uint32(0xdeadbeef))
	if got := Get[uint32](b); got != 0xdeadbeef {
		t.Fatalf("Get uint32 = %#x", got)
	}
}

func TestIsNaN(t *testing.T) {
	if !IsNaN(float32(math.NaN())) || !IsNaN(math.NaN()) {
		t.Fatal("NaN not detected")
	}
	if IsNaN(uint32(7)) || IsNaN(KV64{}) || IsNaN(1.5) {
		t.Fatal("false NaN")
	}
}
