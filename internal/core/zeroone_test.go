package core

import (
	"testing"

	"parbitonic/internal/addr"
	"parbitonic/internal/bitseq"
	"parbitonic/internal/localsort"
	"parbitonic/internal/schedule"
)

// seqState is a goroutine-free executor of the smart algorithm used for
// exhaustive verification: it performs the same initial sorts, remaps
// (via the sequential reference addr.Apply) and local phases as
// smartSort, without the machine.
type seqState struct {
	lgN, lgP int
	data     [][]uint32
}

func (s *seqState) run(optimized bool) {
	for p := range s.data {
		localsort.Sort(s.data[p], p%2 == 0)
	}
	if s.lgP == 0 {
		return
	}
	prev := addr.Blocked(s.lgN, s.lgP)
	for _, r := range schedule.New(s.lgN, s.lgP, schedule.Head) {
		s.data = addr.Apply(prev, r.Layout, s.data)
		prev = r.Layout
		for p := range s.data {
			if optimized {
				s.phaseOptimized(r, p)
			} else {
				for _, st := range schedule.StepsFrom(s.lgN, s.lgP, r.K, r.S, r.StepsAfter) {
					s.stepSim(r.Layout, st, p)
				}
			}
		}
	}
}

func (s *seqState) stepSim(l *addr.Layout, st schedule.Step, p int) {
	localBit := -1
	for i, b := range l.LocalBits {
		if b == st.Bit {
			localBit = i
		}
	}
	data := s.data[p]
	mask := 1 << uint(localBit)
	for lo := range data {
		if lo&mask != 0 {
			continue
		}
		hi := lo | mask
		if (data[lo] > data[hi]) == st.Ascending(l.Abs(p, lo)) {
			data[lo], data[hi] = data[hi], data[lo]
		}
	}
}

func (s *seqState) phaseOptimized(r schedule.Remap, p int) {
	lgn := s.lgN - s.lgP
	data := s.data[p]
	n := len(data)
	switch r.Kind {
	case schedule.Inside:
		out := make([]uint32, n)
		bitseq.SortBitonic(out, data, ascFor(r.Layout, p, lgn+r.K))
		copy(data, out)
	case schedule.Crossing:
		blockLen := 1 << uint(r.A)
		localsort.SortBitonicBlocks(data, blockLen, 1<<uint(r.B-1), nil)
		asc := ascFor(r.Layout, p, lgn+r.K+1)
		localsort.SortBitonicStridedBatch(data, blockLen, 1<<uint(r.B), asc, nil)
	case schedule.Last:
		localsort.SortBitonicBlocks(data, 1<<uint(r.S), 0, nil)
	}
}

// TestZeroOnePrincipleSmartExhaustive verifies the complete distributed
// smart algorithm — schedule, layouts, remap routing and the Chapter 4
// optimized phases — on EVERY 0-1 input for several (N, P) shapes. By
// the zero-one principle this proves the construction sorts all inputs
// of those shapes.
func TestZeroOnePrincipleSmartExhaustive(t *testing.T) {
	// Shapes are capped at N = 16 keys: the check enumerates all 2^N
	// boolean inputs.
	shapes := [][2]int{ // lgP, lgn
		{1, 2}, {1, 3}, {2, 1}, {2, 2}, {3, 1},
	}
	for _, optimized := range []bool{true, false} {
		for _, sh := range shapes {
			lgP, lgn := sh[0], sh[1]
			lgN := lgP + lgn
			N := 1 << uint(lgN)
			P := 1 << uint(lgP)
			n := N / P
			for mask := 0; mask < 1<<uint(N); mask++ {
				ones := 0
				st := seqState{lgN: lgN, lgP: lgP, data: make([][]uint32, P)}
				for p := 0; p < P; p++ {
					st.data[p] = make([]uint32, n)
					for i := 0; i < n; i++ {
						bit := uint32(mask >> uint(p*n+i) & 1)
						st.data[p][i] = bit
						ones += int(bit)
					}
				}
				st.run(optimized)
				pos := 0
				for p := 0; p < P; p++ {
					for i := 0; i < n; i++ {
						want := uint32(0)
						if pos >= N-ones {
							want = 1
						}
						if st.data[p][i] != want {
							t.Fatalf("optimized=%v lgP=%d lgn=%d mask=%b: wrong at global %d",
								optimized, lgP, lgn, mask, pos)
						}
						pos++
					}
				}
			}
		}
	}
}

// The same exhaustive check for the cyclic-blocked baseline shapes that
// satisfy n >= P.
func TestZeroOnePrincipleStepsEquivalence(t *testing.T) {
	// Spot-check that the sequential executor agrees with itself across
	// modes on every 0-1 input of one shape (optimized == simulated
	// elementwise, mirroring TestOptimizedMatchesSimulatedExactly but
	// exhaustively).
	lgP, lgn := 2, 2
	lgN := lgP + lgn
	N := 1 << uint(lgN)
	P := 1 << uint(lgP)
	n := N / P
	for mask := 0; mask < 1<<uint(N); mask++ {
		mk := func() seqState {
			st := seqState{lgN: lgN, lgP: lgP, data: make([][]uint32, P)}
			for p := 0; p < P; p++ {
				st.data[p] = make([]uint32, n)
				for i := 0; i < n; i++ {
					st.data[p][i] = uint32(mask >> uint(p*n+i) & 1)
				}
			}
			return st
		}
		a, b := mk(), mk()
		a.run(true)
		b.run(false)
		for p := 0; p < P; p++ {
			for i := 0; i < n; i++ {
				if a.data[p][i] != b.data[p][i] {
					t.Fatalf("mask=%b: modes disagree at (%d,%d)", mask, p, i)
				}
			}
		}
	}
}
