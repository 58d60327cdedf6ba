package parbitonic

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"unsafe"

	"parbitonic/element"
	"parbitonic/internal/fault"
	"parbitonic/internal/spmd"
	"parbitonic/internal/verify"
	"parbitonic/internal/workload"
)

// The tests in this file pin the ownership contract of the in-place
// FullSort: the default native smart shape at P >= 2 sorts in views of
// the caller's slice, and once Sort returns, on success or failure,
// nothing in the engine or its backend refers to that slice, so a
// later sort on the same engine cannot write into it.

// overlaps reports whether the arrays under a and b, up to their
// capacities, share memory.
func overlaps[E any](a, b []E) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	size := unsafe.Sizeof(a[:1][0])
	a0, b0 := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(cap(b))*size && b0 < a0+uintptr(cap(a))*size
}

// assertReleased fails unless no slice the engine or its backend holds
// reaches keys.
func assertReleased[E element.Elem](t *testing.T, e *EngineOf[E], keys []E) {
	t.Helper()
	for name, set := range map[string][][]E{"m.Data()": e.m.Data(), "staging": e.staging, "views": e.views} {
		for i, d := range set {
			if overlaps(d, keys) {
				t.Fatalf("after Sort returned, %s[%d] still refers to the caller's keys", name, i)
			}
		}
	}
}

// sortAndCheck sorts keys on e and fails unless the result is the
// sorted input and e released keys.
func sortAndCheck[E element.Elem](t *testing.T, e *EngineOf[E], keys []E) {
	t.Helper()
	sum := verify.Sum(keys)
	if _, err := e.Sort(keys); err != nil {
		t.Fatal(err)
	}
	if verr := verify.Distributed([][]E{keys}, sum); verr != nil {
		t.Fatalf("output is not the sorted input: %v", verr)
	}
	assertReleased(t, e, keys)
}

func TestEngineOwnership(t *testing.T) {
	testOwnership[uint32](t)
	testOwnership[uint64](t)
	testOwnership[float32](t)
	testOwnership[float64](t)
	testOwnership[element.KV64](t)
}

// testOwnership sorts A, keeps a copy of the result, sorts B on the
// same engine and checks A did not change, at P = 2, 4 and 8 and at
// shares of 2^12 and 2^18 keys (both FullSort shapes; the larger one
// reaches the hybrid radix). A last case sorts A on an engine whose
// run is corrupted, so verification fails with the result already in
// A; B then sorts correctly and A still does not change.
func testOwnership[E element.Elem](t *testing.T) {
	ty := element.TypeOf[E]()
	for _, p := range []int{2, 4, 8} {
		for _, n := range []int{1 << 12, 1 << 18} {
			t.Run(fmt.Sprintf("%v/P=%d/n=%d", ty, p, n), func(t *testing.T) {
				e, err := NewEngineOf[E](Config{Processors: p, Backend: Native})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				a := workload.Elems[E](workload.FullRange, p*n, 11)
				sortAndCheck(t, e, a)
				kept := slices.Clone(a)
				sortAndCheck(t, e, workload.Elems[E](workload.FullRange, p*n, 12))
				if !slices.Equal(a, kept) {
					t.Fatal("sorting B on the engine changed A")
				}
			})
		}
	}
	t.Run(fmt.Sprintf("%v/verify-failure", ty), func(t *testing.T) {
		inj := fault.NewInjector(fault.Plan{Kind: fault.Corrupt, Proc: 1, Round: 1})
		e, err := NewEngineOf[E](Config{Processors: 4, Backend: Native, Verify: true, WrapCharger: inj.Wrap})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		a := workload.Elems[E](workload.FullRange, 4<<12, 13)
		_, err = e.Sort(a)
		var verr *VerifyError
		if !inj.Fired() || !errors.As(err, &verr) {
			t.Fatalf("corrupted run returned %v (fired %v), want a *VerifyError", err, inj.Fired())
		}
		assertReleased(t, e, a)
		kept := slices.Clone(a)
		sortAndCheck(t, e, workload.Elems[E](workload.FullRange, 4<<12, 14))
		if !slices.Equal(a, kept) {
			t.Fatal("sorting B on the engine changed the failed run's A")
		}
	})
}

// cancelAt cancels the armed context when processor 0 charges compute
// after round remaps, and holds that processor until the abort has
// landed, so the run is canceled at exactly that point.
type cancelAt struct {
	spmd.Charger
	round  int
	cancel atomic.Pointer[context.CancelFunc]
}

func (c *cancelAt) Compute(p *spmd.PC, t float64) {
	if p.ID == 0 && p.Stats.Remaps == c.round {
		if f := c.cancel.Swap(nil); f != nil {
			(*f)()
			for !p.Aborting() {
				runtime.Gosched()
			}
		}
	}
	c.Charger.Compute(p, t)
}

// TestInPlaceCancelThenReuse cancels an in-place P=2 sort of 2^20 keys
// in each of its rounds: after the radix sort, after the first merge
// and after the final merge into the caller's slice. Each canceled
// sort returns ErrCanceled and releases its keys, and the next sort on
// the same engine is correct and leaves the canceled input alone.
func TestInPlaceCancelThenReuse(t *testing.T) {
	for round := 0; round <= 2; round++ {
		t.Run(fmt.Sprintf("round=%d", round), func(t *testing.T) {
			c := &cancelAt{round: round}
			e, err := NewEngine(Config{Processors: 2, Backend: Native, WrapCharger: func(inner spmd.Charger) spmd.Charger {
				c.Charger = inner
				return c
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			sortAndCheck(t, e, workload.Elems[uint32](workload.FullRange, 1<<20, 21))

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			c.cancel.Store(&cancel)
			a := workload.Elems[uint32](workload.FullRange, 1<<20, 22)
			if _, err := e.SortContext(ctx, a); !errors.Is(err, spmd.ErrCanceled) {
				t.Fatalf("canceled sort returned %v, want ErrCanceled", err)
			}
			assertReleased(t, e, a)
			kept := slices.Clone(a)
			sortAndCheck(t, e, workload.Elems[uint32](workload.FullRange, 1<<20, 23))
			if !slices.Equal(a, kept) {
				t.Fatal("the sort after the cancel changed the canceled input")
			}
		})
	}
}
