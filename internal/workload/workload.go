// Package workload generates the key distributions used by the
// experiments. The paper uses "random, uniformly-distributed 32-bit
// keys" whose generator "produces numbers in the range 0 through
// 2^31 - 1" (§5.3); Uniform31 reproduces that. The other distributions
// exercise the §5.5 discussion: sample sort degrades on low-entropy
// inputs while bitonic sort is oblivious to the distribution.
package workload

import (
	"fmt"
	"math/bits"

	"parbitonic/element"
)

// Dist selects a key distribution.
type Dist int

const (
	// Uniform31 draws uniform keys in [0, 2^31) — the paper's workload.
	Uniform31 Dist = iota
	// FullRange draws uniform keys over all 32 bits.
	FullRange
	// Sorted produces an already ascending sequence.
	Sorted
	// Reverse produces a descending sequence.
	Reverse
	// FewDistinct draws from only 8 distinct values (low entropy).
	FewDistinct
	// Gaussian approximates a normal distribution by averaging four
	// uniform draws (low variance around 2^30).
	Gaussian
	// AllEqual produces a constant sequence (zero entropy).
	AllEqual
)

func (d Dist) String() string {
	switch d {
	case Uniform31:
		return "uniform31"
	case FullRange:
		return "fullrange"
	case Sorted:
		return "sorted"
	case Reverse:
		return "reverse"
	case FewDistinct:
		return "fewdistinct"
	case Gaussian:
		return "gaussian"
	case AllEqual:
		return "allequal"
	}
	return fmt.Sprintf("dist(%d)", int(d))
}

// Dists lists every distribution, for sweep-style tests.
func Dists() []Dist {
	return []Dist{Uniform31, FullRange, Sorted, Reverse, FewDistinct, Gaussian, AllEqual}
}

// RNG is a small deterministic xorshift64* generator, so experiments
// are reproducible without importing math/rand state semantics.
type RNG struct{ state uint64 }

// NewRNG seeds a generator; seed 0 is remapped to a fixed nonzero value.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Next returns the next 64-bit value.
func (r *RNG) Next() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Uint32 returns the next 32-bit value.
func (r *RNG) Uint32() uint32 { return uint32(r.Next() >> 32) }

// Intn returns a value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn on non-positive bound")
	}
	return int(r.Next() % uint64(n))
}

// Keys generates n keys of the given distribution.
func Keys(d Dist, n int, seed uint64) []uint32 {
	rng := NewRNG(seed)
	out := make([]uint32, n)
	switch d {
	case Uniform31:
		for i := range out {
			out[i] = rng.Uint32() & 0x7fffffff
		}
	case FullRange:
		for i := range out {
			out[i] = rng.Uint32()
		}
	case Sorted:
		for i := range out {
			out[i] = uint32(i)
		}
	case Reverse:
		for i := range out {
			out[i] = uint32(n - i)
		}
	case FewDistinct:
		vals := make([]uint32, 8)
		for i := range vals {
			vals[i] = rng.Uint32() & 0x7fffffff
		}
		for i := range out {
			out[i] = vals[rng.Intn(len(vals))]
		}
	case Gaussian:
		for i := range out {
			s := uint64(0)
			for j := 0; j < 4; j++ {
				s += uint64(rng.Uint32() & 0x7fffffff)
			}
			out[i] = uint32(s / 4)
		}
	case AllEqual:
		v := rng.Uint32() & 0x7fffffff
		for i := range out {
			out[i] = v
		}
	default:
		panic(fmt.Sprintf("workload: unknown distribution %d", int(d)))
	}
	return out
}

// PerProc generates N = n*P keys and deals them blocked: processor p
// receives keys[p*n : (p+1)*n], the paper's initial blocked layout.
func PerProc(d Dist, p, n int, seed uint64) [][]uint32 {
	all := Keys(d, p*n, seed)
	out := make([][]uint32, p)
	for i := range out {
		out[i] = all[i*n : (i+1)*n : (i+1)*n]
	}
	return out
}

// Elems generates n elements of the given distribution for any element
// type: the 32-bit key stream of Keys is carried into E's key space
// through a monotone order-image conversion, so the distribution's
// *structure* (orderings, duplicates, entropy) carries over to every
// element type and an element workload sorts the same way its uint32
// counterpart does. Float keys are spread across the finite image
// window (the raw 32-bit image of a small key would be a NaN bit
// pattern); for float32 the window is slightly narrower than 32 bits,
// so distinct full-range keys can collide — harmless for sorting
// workloads. Record elements (KV64) receive the element's position as
// payload, making every record distinguishable — which is what
// payload-permutation checks need.
func Elems[E element.Elem](d Dist, n int, seed uint64) []E {
	keys := Keys(d, n, seed)
	out := make([]E, n)
	lo, hi := imageWindow[E]()
	switch any(*new(E)).(type) {
	case float32:
		for i, k := range keys {
			out[i] = element.FromBits[E](lo+uint64(k)*(hi-lo)>>32, 0)
		}
	case float64:
		// The stride keeps the map injective over 32-bit keys.
		step := (hi - lo) >> 32
		for i, k := range keys {
			out[i] = element.FromBits[E](lo+uint64(k)*step, 0)
		}
	default:
		for i, k := range keys {
			out[i] = element.FromBits[E](uint64(k), uint64(i))
		}
	}
	return out
}

// imageWindow returns the order images [lo, hi) generated keys of E
// are drawn from: a float type's finite images, those of -Inf through
// +Inf, or else every key of the type's width.
func imageWindow[E element.Elem]() (lo, hi uint64) {
	switch any(*new(E)).(type) {
	case float32:
		return 0x007FFFFF, 0xFF800000
	case float64:
		return 0x000FFFFFFFFFFFFF, 0xFFF0000000000000
	}
	return 0, ^uint64(0) >> (64 - element.KeyBits[E]())
}

// FullWidth generates n uniform elements whose keys fill E's image
// window, where Elems' 64-bit integer keys stay below 2^32. KV64
// records carry their position as payload.
func FullWidth[E element.Elem](n int, seed uint64) []E {
	rng := NewRNG(seed)
	lo, hi := imageWindow[E]()
	out := make([]E, n)
	for i := range out {
		b, _ := bits.Mul64(rng.Next(), hi-lo)
		out[i] = element.FromBits[E](lo+b, uint64(i))
	}
	return out
}

// PerProcOf is PerProc for any element type: N = n*P elements of the
// distribution dealt blocked. Payload words (for record elements) are
// globally unique across the whole input.
func PerProcOf[E element.Elem](d Dist, p, n int, seed uint64) [][]E {
	all := Elems[E](d, p*n, seed)
	out := make([][]E, p)
	for i := range out {
		out[i] = all[i*n : (i+1)*n : (i+1)*n]
	}
	return out
}
