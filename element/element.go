// Package element defines the element layer of the sort stack: the
// closed set of fixed-width element types every layer — leaf kernels,
// the SPMD data plane, the public API, and the sort-server wire
// protocol — is parameterized over.
//
// The layer deliberately supports a closed union rather than an open
// cmp.Ordered-style constraint, for two reasons that matter in the hot
// paths:
//
//   - Exactness makes unsafe reinterpretation sound. Because Elem
//     admits exactly five types (no ~ approximation), a generic
//     function instantiated on E knows E's memory layout completely,
//     so Cast can reinterpret an []E as its bit-image slice for radix
//     passes and wire encoding without reflection.
//   - Kernels dispatch once per call, not once per element. Hot loops
//     (compare-exchange, radix scatter, run merging) switch on the
//     element kind at function entry and run a monomorphic body using
//     native < on the concrete type; the per-element cost of a
//     method-bearing constraint (a dictionary call per comparison)
//     measured ~45% on the paper's compare-split kernels.
//
// Ordering is the natural < for scalars and key order for KV64
// records; floats order by native comparison, with NaN excluded at
// the API boundary (see IsNaN). Every element has a 64-bit order
// image (Bits) whose unsigned ordering agrees with element ordering,
// which gives radix kernels their digits and the fault injector a
// type-independent way to flip a key's top bit.
package element

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// KV64 is the key+payload record element: a 64-bit sort key and a
// 64-bit payload that rides untouched alongside it through every
// pack, transfer, and unpack. Records order by K alone; V never
// influences placement, so records with equal keys may appear in any
// order (the sort is not stable).
type KV64 struct {
	K uint64 // sort key
	V uint64 // opaque payload, preserved but never compared
}

// Elem is the closed set of element types the stack sorts. The union
// is exact (no ~ terms) on purpose: soundness of Cast and the
// completeness of every kind switch in this package depend on an
// instantiation being one of precisely these five types.
type Elem interface {
	uint32 | uint64 | float32 | float64 | KV64
}

// Ord is the scalar subset of Elem: the four types on which native
// <, <=, and == are defined. It is the key type of the one key view
// every hot kernel uses (see KeyOf): a kernel body runs over a storage
// type S and compares keys read as K, so a single generic body serves
// all five element types, KV64 records included.
type Ord interface {
	uint32 | uint64 | float32 | float64
}

// Uint is the unsigned integer subset of Ord: the storage type float
// kernels run over, and the key type of digit kernels (radix passes
// over order images, see ToImages).
type Uint interface {
	uint32 | uint64
}

// Less reports whether a orders before b: native < for scalars, key
// order for KV64. This is the generic cold-path comparison; hot
// kernels dispatch by kind at entry instead and use < directly.
func Less[E Elem](a, b E) bool {
	switch x := any(a).(type) {
	case uint32:
		return x < any(b).(uint32)
	case uint64:
		return x < any(b).(uint64)
	case float32:
		return x < any(b).(float32)
	case float64:
		return x < any(b).(float64)
	case KV64:
		return x.K < any(b).(KV64).K
	}
	panic("element: impossible kind")
}

// Bits returns e's 64-bit order image: an unsigned integer whose <
// agrees with element ordering. Integers are their own image (zero-
// extended), floats use the standard sign-flip transform (flip all
// bits of negatives, set the top bit of non-negatives), and KV64
// images as its key. Only the low KeyBits bits are meaningful; the
// rest are zero.
func Bits[E Elem](e E) uint64 {
	switch x := any(e).(type) {
	case uint32:
		return uint64(x)
	case uint64:
		return x
	case float32:
		return uint64(flip32(math.Float32bits(x)))
	case float64:
		return flip64(math.Float64bits(x))
	case KV64:
		return x.K
	}
	panic("element: impossible kind")
}

// Aux returns the part of e that is not the order image: the payload
// for KV64, zero for every scalar. Bits and Aux together determine an
// element exactly; FromBits is the inverse.
func Aux[E Elem](e E) uint64 {
	if x, ok := any(e).(KV64); ok {
		return x.V
	}
	return 0
}

// FromBits reconstructs an element from its order image and aux word,
// inverting Bits and Aux. Scalars ignore aux and truncate bits to
// their key width — so integer arithmetic performed on images (as the
// sum collectives do) folds back modulo 2^KeyBits, exactly matching
// native unsigned arithmetic on the element type.
func FromBits[E Elem](bits, aux uint64) E {
	var e E
	switch any(e).(type) {
	case uint32:
		return any(uint32(bits)).(E)
	case uint64:
		return any(bits).(E)
	case float32:
		return any(math.Float32frombits(unflip32(uint32(bits)))).(E)
	case float64:
		return any(math.Float64frombits(unflip64(bits))).(E)
	case KV64:
		return any(KV64{K: bits, V: aux}).(E)
	}
	panic("element: impossible kind")
}

// Max returns the maximum element of E. No valid element orders
// after it (NaN is excluded by the API boundary).
func Max[E Elem]() E {
	var e E
	switch any(e).(type) {
	case uint32:
		return any(^uint32(0)).(E)
	case uint64:
		return any(^uint64(0)).(E)
	case float32:
		return any(float32(math.Inf(1))).(E)
	case float64:
		return any(math.Inf(1)).(E)
	case KV64:
		return any(KV64{K: ^uint64(0), V: ^uint64(0)}).(E)
	}
	panic("element: impossible kind")
}

// IsNaN reports whether e is a float NaN — the one value the ordering
// contract cannot admit (it is unordered under <, which would break
// the bitonic invariants silently). The public API rejects NaN inputs
// before a run starts; every layer below assumes none remain.
func IsNaN[E Elem](e E) bool {
	switch x := any(e).(type) {
	case float32:
		return x != x
	case float64:
		return x != x
	}
	return false
}

// Width returns E's size in bytes (4, 8, or 16): the unit the LogGP
// charger scales per-key costs by and the stride of the wire format.
func Width[E Elem]() int {
	return int(unsafe.Sizeof(*new(E)))
}

// Words returns E's size in 32-bit words — the charger's element-width
// factor, 1 for uint32 so the simulated paper tables are unchanged.
func Words[E Elem]() int {
	return Width[E]() / 4
}

// KeyBits returns the number of significant bits in E's order image:
// 32 for uint32 and float32, 64 otherwise. Radix kernels derive their
// pass count from it; the fault injector flips bit KeyBits-1.
func KeyBits[E Elem]() int {
	switch any(*new(E)).(type) {
	case uint32, float32:
		return 32
	}
	return 64
}

// Cast reinterprets a slice of one fixed-width type as another of the
// same size, sharing the backing array (len == cap == len(s)). It is
// how kind-dispatched kernels view an []E as the concrete type they
// matched — sound because Elem is an exact union — and how float radix
// passes view keys as their integer bit patterns in place. T and E
// must have equal sizes; Cast panics otherwise.
func Cast[T any, E any](s []E) []T {
	if unsafe.Sizeof(*new(T)) != unsafe.Sizeof(*new(E)) {
		panic(fmt.Sprintf("element: Cast between unequal widths (%d vs %d bytes)",
			unsafe.Sizeof(*new(T)), unsafe.Sizeof(*new(E))))
	}
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&s[0])), len(s))
}

// The key view. A kind-dispatched kernel runs one generic body over a
// storage type S and a key type K, chosen once per call:
//
//	element   S        K
//	uint32    uint32   uint32
//	uint64    uint64   uint64
//	KV64      KV64     uint64
//	float32   uint32   float32
//	float64   uint64   float64
//
// Floats run over integer storage of the same width (Cast views the
// slice), so moves and selects are integer operations while compares
// keep float order. The body reads each element's key with KeyOf and
// compares keys natively; digit kernels instead read K = S's Uint over
// order images, for floats after ToImages.

// The key of a KV64 record is its first field; this constant index
// fails to compile if the field ever moves.
var _ = [1]struct{}{}[unsafe.Offsetof(KV64{}.K)]

// KeyOf returns the sort key of the element at p: its leading bytes
// read as K. K must be one of the pairings in the table above (or the
// Uint of an order image's width).
func KeyOf[K Ord, S Elem](p *S) K {
	return *(*K)(unsafe.Pointer(p))
}

// Recast views *p, a value whose type is built from one element type
// (a run table, a routing target), as the same value built from the
// storage type of the table above. T and U must have equal sizes and,
// apart from the element type, identical layouts; Recast panics on a
// size mismatch.
func Recast[T, U any](p *U) *T {
	if unsafe.Sizeof(*new(T)) != unsafe.Sizeof(*new(U)) {
		panic(fmt.Sprintf("element: Recast between unequal sizes (%d vs %d bytes)",
			unsafe.Sizeof(*new(T)), unsafe.Sizeof(*new(U))))
	}
	return (*T)(unsafe.Pointer(p))
}

// ToImages replaces every element of s by its order image in place:
// afterwards an element's storage, read as the Uint of its width, is
// Bits(e), so digit kernels run on floats as on integers. Integers and
// KV64 records are their own images and stay untouched. FromImages
// inverts it.
func ToImages[E Elem](s []E) {
	switch any(*new(E)).(type) {
	case float32:
		u := Cast[uint32](s)
		for i, b := range u {
			u[i] = flip32(b)
		}
	case float64:
		u := Cast[uint64](s)
		for i, b := range u {
			u[i] = flip64(b)
		}
	}
}

// FromImages inverts ToImages.
func FromImages[E Elem](s []E) {
	switch any(*new(E)).(type) {
	case float32:
		u := Cast[uint32](s)
		for i, b := range u {
			u[i] = unflip32(b)
		}
	case float64:
		u := Cast[uint64](s)
		for i, b := range u {
			u[i] = unflip64(b)
		}
	}
}

// flip32 maps float32 bit patterns to their order image: flipping all
// bits of negatives and the sign bit of non-negatives makes unsigned
// image order agree with float order (with -0.0 imaging just below
// +0.0).
func flip32(b uint32) uint32 {
	if b&(1<<31) != 0 {
		return ^b
	}
	return b | 1<<31
}

// unflip32 inverts flip32.
func unflip32(u uint32) uint32 {
	if u&(1<<31) != 0 {
		return u &^ (1 << 31)
	}
	return ^u
}

// flip64 is flip32 for float64 bit patterns.
func flip64(b uint64) uint64 {
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// unflip64 inverts flip64.
func unflip64(u uint64) uint64 {
	if u&(1<<63) != 0 {
		return u &^ (1 << 63)
	}
	return ^u
}

// Type names an element type at runtime — on command lines, in pool
// keys, and as the wire byte of the sort-server's versioned binary
// frame (the constant values ARE the protocol encoding; do not
// reorder).
type Type uint8

const (
	// TU32 is uint32: the paper's native 32-bit key.
	TU32 Type = iota
	// TU64 is uint64.
	TU64
	// TF32 is float32.
	TF32
	// TF64 is float64.
	TF64
	// TKV64 is the KV64 key+payload record.
	TKV64
)

// TypeOf returns the Type naming the instantiation E.
func TypeOf[E Elem]() Type {
	switch any(*new(E)).(type) {
	case uint32:
		return TU32
	case uint64:
		return TU64
	case float32:
		return TF32
	case float64:
		return TF64
	}
	return TKV64
}

// String returns the type's canonical flag spelling (u32, u64, f32,
// f64, kv64).
func (t Type) String() string {
	switch t {
	case TU32:
		return "u32"
	case TU64:
		return "u64"
	case TF32:
		return "f32"
	case TF64:
		return "f64"
	case TKV64:
		return "kv64"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// ParseType parses a flag spelling produced by String.
func ParseType(s string) (Type, error) {
	for _, t := range Types() {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("element: unknown type %q (want u32, u64, f32, f64 or kv64)", s)
}

// Types lists every element type, for sweep-style tests and build
// matrices.
func Types() []Type {
	return []Type{TU32, TU64, TF32, TF64, TKV64}
}

// Width returns the type's element size in bytes, matching Width[E]
// for the corresponding instantiation.
func (t Type) Width() int {
	switch t {
	case TU32, TF32:
		return 4
	case TU64, TF64:
		return 8
	case TKV64:
		return 16
	}
	return 0
}

// KeyBits returns the significant order-image bits of the type,
// matching KeyBits[E] for the corresponding instantiation.
func (t Type) KeyBits() int {
	switch t {
	case TU32, TF32:
		return 32
	}
	return 64
}

// Put writes e into b in the wire format: little-endian, Width bytes,
// with KV64 laid out key first then payload. b must have at least
// Width bytes.
func Put[E Elem](b []byte, e E) {
	switch x := any(e).(type) {
	case uint32:
		binary.LittleEndian.PutUint32(b, x)
	case uint64:
		binary.LittleEndian.PutUint64(b, x)
	case float32:
		binary.LittleEndian.PutUint32(b, math.Float32bits(x))
	case float64:
		binary.LittleEndian.PutUint64(b, math.Float64bits(x))
	case KV64:
		binary.LittleEndian.PutUint64(b, x.K)
		binary.LittleEndian.PutUint64(b[8:], x.V)
	}
}

// Get reads an element from b, inverting Put.
func Get[E Elem](b []byte) E {
	var e E
	switch any(e).(type) {
	case uint32:
		return any(binary.LittleEndian.Uint32(b)).(E)
	case uint64:
		return any(binary.LittleEndian.Uint64(b)).(E)
	case float32:
		return any(math.Float32frombits(binary.LittleEndian.Uint32(b))).(E)
	case float64:
		return any(math.Float64frombits(binary.LittleEndian.Uint64(b))).(E)
	case KV64:
		return any(KV64{
			K: binary.LittleEndian.Uint64(b),
			V: binary.LittleEndian.Uint64(b[8:]),
		}).(E)
	}
	panic("element: impossible kind")
}
