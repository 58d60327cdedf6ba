package ntt

import (
	"fmt"

	"parbitonic/internal/addr"
	"parbitonic/internal/machine"
)

// LayoutChain returns the minimal sequence of data layouts that covers
// the forward transform's lg N butterfly steps (bits lgN-1 .. 0) with
// lg n consecutive steps local per layout — the paper's remapping idea
// transplanted from the bitonic network to the FFT butterfly. The
// first layout makes the top lg n bits local; the last is the blocked
// layout. For N >= P² the chain has length 2: the classic
// cyclic-to-blocked FFT remap of [CKP+93].
func LayoutChain(lgN, lgP int) []*addr.Layout {
	lgn := lgN - lgP
	if lgn < 1 {
		panic("ntt: need at least 2 points per processor")
	}
	var chain []*addr.Layout
	hi := lgN
	for hi > 0 {
		lo := hi - lgn
		if lo < 0 {
			lo = 0
		}
		l := &addr.Layout{LgN: lgN, LgP: lgP, Name: fmt.Sprintf("fft-chunk[%d,%d)", lo, lo+lgn)}
		for i := 0; i < lgn; i++ {
			l.LocalBits = append(l.LocalBits, lo+i)
		}
		for b := 0; b < lgN; b++ {
			if b < lo || b >= lo+lgn {
				l.ProcBits = append(l.ProcBits, b)
			}
		}
		if err := l.Validate(); err != nil {
			panic(err)
		}
		chain = append(chain, l)
		hi = lo
	}
	return chain
}

// stepLocal runs one butterfly pass on absolute bit `bit` over pr's
// local data under layout l (the bit must be local). Forward or inverse
// per the inv flag; tw from twiddles(lgN, inv).
func stepLocal(pr *machine.Proc, l *addr.Layout, lgN, bit int, tw []uint32, inv bool) {
	localBit := -1
	for i, b := range l.LocalBits {
		if b == bit {
			localBit = i
			break
		}
	}
	if localBit == -1 {
		panic(fmt.Sprintf("ntt: bit %d not local under %s", bit, l.Name))
	}
	data := pr.Data
	lmask := 1 << uint(localBit)
	shift := uint(lgN - 1 - bit)
	amask := 1<<uint(bit) - 1
	for lo := range data {
		if lo&lmask != 0 {
			continue
		}
		hi := lo | lmask
		abs := l.Abs(pr.ID, lo)
		t := tw[(abs&amask)<<shift]
		u, v := data[lo], data[hi]
		if inv {
			v = modMul(v, t)
			data[lo] = modAdd(u, v)
			data[hi] = modSub(u, v)
		} else {
			data[lo] = modAdd(u, v)
			data[hi] = modMul(modSub(u, v), t)
		}
	}
	pr.ChargeCompareExchange(len(data))
}

// ParallelForward computes the forward NTT of the distributed sequence
// (data[p] holds points p*n..(p+1)*n-1, blocked layout; values <
// Modulus) using the remapped layout chain. The result, like Forward's,
// is in bit-reversed index order, blocked layout. It takes ownership of
// data; retrieve the output with m.Data().
func ParallelForward(m *machine.Machine, data [][]uint32) (machine.Result, error) {
	lgN, lgP, err := dims(m, data)
	if err != nil {
		return machine.Result{}, err
	}
	lgn := lgN - lgP
	chain := LayoutChain(lgN, lgP)
	plans := plansAlong(append([]*addr.Layout{addr.Blocked(lgN, lgP)}, chain...))
	tw := twiddles(lgN, false)
	res, runErr := m.Run(data, func(pr *machine.Proc) {
		spare := make([]uint32, len(pr.Data)) // each remap's destination
		hi := lgN
		for i, l := range chain {
			if plans[i] != nil {
				spare = pr.Remap(plans[i], false, spare)
			}
			lo := hi - lgn
			if lo < 0 {
				lo = 0
			}
			for bit := hi - 1; bit >= lo; bit-- {
				stepLocal(pr, l, lgN, bit, tw, false)
			}
			hi = lo
		}
	})
	if runErr != nil {
		return machine.Result{}, runErr
	}
	return res, nil
}

// ParallelInverse inverts a bit-reverse-ordered distributed spectrum
// back to the natural-order sequence (blocked layout both ways).
func ParallelInverse(m *machine.Machine, data [][]uint32) (machine.Result, error) {
	lgN, lgP, err := dims(m, data)
	if err != nil {
		return machine.Result{}, err
	}
	lgn := lgN - lgP
	chain := LayoutChain(lgN, lgP)
	// Inverse walks the chunks upward: reverse the chain; the first
	// chunk is the blocked layout (no initial remap) and a final remap
	// returns to blocked.
	rev := make([]*addr.Layout, len(chain))
	for i, l := range chain {
		rev[len(chain)-1-i] = l
	}
	seq := append([]*addr.Layout{addr.Blocked(lgN, lgP)}, rev...)
	seq = append(seq, addr.Blocked(lgN, lgP))
	plans := plansAlong(seq)
	tw := twiddles(lgN, true)
	nInv := ModInv(uint32(1 << uint(lgN) % Modulus))
	res, runErr := m.Run(data, func(pr *machine.Proc) {
		spare := make([]uint32, len(pr.Data)) // each remap's destination
		lo := 0
		for i, l := range rev {
			if plans[i] != nil {
				spare = pr.Remap(plans[i], false, spare)
			}
			// Chunk boundaries mirror the forward chain exactly.
			hi := lo + chunkWidth(lgN, lgn, lo)
			for bit := lo; bit < hi; bit++ {
				stepLocal(pr, l, lgN, bit, tw, true)
			}
			lo = hi
		}
		if plans[len(rev)] != nil {
			pr.Remap(plans[len(rev)], false, spare)
		}
		for i := range pr.Data {
			pr.Data[i] = modMul(pr.Data[i], nInv)
		}
		pr.ChargeCompute(pr.Costs().Merge * float64(len(pr.Data)))
	})
	if runErr != nil {
		return machine.Result{}, runErr
	}
	return res, nil
}

// chunkWidth returns how many bits the chunk starting at bit lo covers
// in the forward chain (whose boundaries are computed from the top).
func chunkWidth(lgN, lgn, lo int) int {
	// Forward chunks are [hi-lgn, hi) from the top; the bottom chunk is
	// [0, lgn). Reconstruct the boundary containing lo.
	hi := lgN
	for hi > 0 {
		l := hi - lgn
		if l < 0 {
			l = 0
		}
		if lo == l {
			return hi - l
		}
		hi = l
	}
	panic("ntt: lo is not a chunk boundary")
}

// plansAlong builds remap plans between consecutive layouts, nil when
// two neighbours are equal (no communication needed).
func plansAlong(seq []*addr.Layout) []*addr.RemapPlan {
	plans := make([]*addr.RemapPlan, len(seq)-1)
	for i := 1; i < len(seq); i++ {
		if !seq[i-1].Equal(seq[i]) {
			plans[i-1] = addr.NewRemapPlan(seq[i-1], seq[i])
		}
	}
	return plans
}

// BlockedForward is the baseline: a fixed blocked layout where the
// top lg P butterfly passes exchange full local arrays between pairs of
// processors — the FFT analogue of the Blocked-Merge bitonic sort.
func BlockedForward(m *machine.Machine, data [][]uint32) (machine.Result, error) {
	lgN, lgP, err := dims(m, data)
	if err != nil {
		return machine.Result{}, err
	}
	lgn := lgN - lgP
	blocked := addr.Blocked(lgN, lgP)
	tw := twiddles(lgN, false)
	res, runErr := m.Run(data, func(pr *machine.Proc) {
		n := len(pr.Data)
		// A pass writes the array the partner read one pass earlier,
		// which this pass's exchange barriers have freed.
		spare := make([]uint32, n)
		shiftBase := lgN - 1
		for bit := lgN - 1; bit >= lgn; bit-- {
			procBit := bit - lgn
			partner := pr.ID ^ 1<<uint(procBit)
			theirs := pr.PairExchange(partner, pr.Data)
			iAmLow := pr.ID>>uint(procBit)&1 == 0
			out := spare
			shift := uint(shiftBase - bit)
			amask := 1<<uint(bit) - 1
			for l := 0; l < n; l++ {
				t := tw[(blocked.Abs(pr.ID, l)&amask)<<shift]
				if iAmLow {
					out[l] = modAdd(pr.Data[l], theirs[l])
				} else {
					out[l] = modMul(modSub(theirs[l], pr.Data[l]), t)
				}
			}
			pr.Data, spare = out, pr.Data
			pr.ChargeCompareExchange(n)
		}
		for bit := lgn - 1; bit >= 0; bit-- {
			stepLocal(pr, blocked, lgN, bit, tw, false)
		}
	})
	if runErr != nil {
		return machine.Result{}, runErr
	}
	return res, nil
}

func dims(m *machine.Machine, data [][]uint32) (lgN, lgP int, err error) {
	P := m.P()
	if len(data) != P {
		return 0, 0, fmt.Errorf("ntt: %d data slices for %d processors", len(data), P)
	}
	n := len(data[0])
	if n == 0 || n&(n-1) != 0 {
		return 0, 0, fmt.Errorf("ntt: points per processor must be a positive power of two, got %d", n)
	}
	for i := range data {
		if len(data[i]) != n {
			return 0, 0, fmt.Errorf("ntt: ragged data at processor %d", i)
		}
	}
	for lgP = 0; 1<<uint(lgP) < P; lgP++ {
	}
	lgn := 0
	for 1<<uint(lgn) < n {
		lgn++
	}
	lgN = lgn + lgP
	if lgN > maxLgN {
		return 0, 0, fmt.Errorf("ntt: total size 2^%d exceeds 2^%d", lgN, maxLgN)
	}
	if P > 1 && lgn < 1 {
		return 0, 0, fmt.Errorf("ntt: need at least 2 points per processor")
	}
	return lgN, lgP, nil
}
