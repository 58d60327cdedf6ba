package parbitonic

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"parbitonic/element"
	"parbitonic/internal/fault"
	"parbitonic/internal/obs"
	"parbitonic/internal/spmd"
	"parbitonic/internal/verify"
	"parbitonic/internal/workload"
)

// The tests in this file pin the ownership contract of a sort: every
// shape sorts in views of the caller's slice, and once Sort returns, on
// success or failure, nothing in the engine or its backend refers to
// that slice, so a later sort on the same engine cannot write into it.

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
	for name, set := range map[string][][]E{"m.Data()": e.m.Data(), "views": e.views} {
		for i, d := range set {
			if overlaps(d, keys) {
				t.Fatalf("after Sort returned, %s[%d] still refers to the caller's keys", name, i)
			}
		}
	}
}

// finalized sets a finalizer on keys' array, which must be a fresh
// allocation, and returns a probe that collects garbage until the
// finalizer has run. The probe reports false if the array stayed
// reachable; call it once the test holds no reference to keys, while
// the engine under test is still alive, so a table anywhere in the
// engine or its bodies that still reaches the array fails it.
func finalized[E any](keys []E) func() bool {
	done := make(chan struct{})
	runtime.SetFinalizer(&keys[0], func(*E) { close(done) })
	return func() bool {
		for range 20 {
			runtime.GC()
			select {
			case <-done:
				return true
			case <-time.After(5 * time.Millisecond):
			}
		}
		return false
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
// same engine and checks A did not change and B's array is collectable
// with the engine alive. The default native shape runs at P = 2, 4 and
// 8 and at shares of 2^12 and 2^18 keys (both FullSort shapes; the
// larger one reaches the hybrid radix). The other
// shapes run once each: the native baselines at P=4 (Remap with
// strided merges, and pair exchanges over three rotating arrays),
// native smart at P=8 with 16 keys a processor (the optimized phases
// over Remap), simulated smart with step simulation, and the psort
// comparators. A last case sorts A on an engine whose run is
// corrupted, so verification fails with the result already in A; B
// then sorts correctly, A still does not change and B is collectable.
func testOwnership[E element.Elem](t *testing.T) {
	ty := element.TypeOf[E]()
	check := func(t *testing.T, cfg Config, keys int) {
		e, err := NewEngineOf[E](cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		a := workload.Elems[E](workload.FullRange, keys, 11)
		sortAndCheck(t, e, a)
		kept := slices.Clone(a)
		b := workload.Elems[E](workload.FullRange, keys, 12)
		freed := finalized(b)
		sortAndCheck(t, e, b)
		if !slices.Equal(a, kept) {
			t.Fatal("sorting B on the engine changed A")
		}
		if !freed() {
			t.Fatal("after Sort returned, the engine keeps B's array reachable")
		}
	}
	for _, p := range []int{2, 4, 8} {
		for _, n := range []int{1 << 12, 1 << 18} {
			t.Run(fmt.Sprintf("%v/P=%d/n=%d", ty, p, n), func(t *testing.T) {
				check(t, Config{Processors: p, Backend: Native}, p*n)
			})
		}
	}
	for _, c := range []struct {
		name string
		cfg  Config
		n    int
	}{
		{"cyclic-blocked/P=4", Config{Processors: 4, Algorithm: CyclicBlockedBitonic, Backend: Native}, 1 << 12},
		{"blocked-merge/P=4", Config{Processors: 4, Algorithm: BlockedMergeBitonic, Backend: Native}, 1 << 12},
		{"smart/P=8/n=16", Config{Processors: 8, Backend: Native}, 16},
		{"simulated-steps/P=4", Config{Processors: 4, Sim: SimOptions{SimulateSteps: true}}, 1 << 10},
		{"sample/P=4", Config{Processors: 4, Algorithm: SampleSort, Backend: Native}, 1 << 12},
		{"radix/P=4", Config{Processors: 4, Algorithm: RadixSort, Backend: Native}, 1 << 12},
	} {
		t.Run(fmt.Sprintf("%v/%s", ty, c.name), func(t *testing.T) {
			check(t, c.cfg, c.cfg.Processors*c.n)
		})
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
		b := workload.Elems[E](workload.FullRange, 4<<12, 14)
		freed := finalized(b)
		sortAndCheck(t, e, b)
		if !slices.Equal(a, kept) {
			t.Fatal("sorting B on the engine changed the failed run's A")
		}
		if !freed() {
			t.Fatal("after Sort returned, the engine keeps B's array reachable")
		}
	})
}

// cancelAt cancels the armed context when processor 0 makes its
// local compute charge number at (counted from 0 once armed), and
// holds that processor until the abort has landed, so the run is
// canceled at exactly that point.
type cancelAt struct {
	spmd.Charger
	at, seen int // seen is processor 0's own count
	cancel   atomic.Pointer[context.CancelFunc]
}

func (c *cancelAt) Compute(p *spmd.PC, t float64) {
	if p.ID == 0 && c.cancel.Load() != nil {
		if c.seen == c.at {
			(*c.cancel.Swap(nil))()
			for !p.Aborting() {
				runtime.Gosched()
			}
		}
		c.seen++
	}
	c.Charger.Compute(p, t)
}

// TestInPlaceCancelThenReuse cancels sorts of 2^20 keys after each of
// processor 0's local compute charges. Smart P=2 (FullSort) has three
// rounds: the radix sort, the first merge and the final merge into the
// caller's slice; smart P=4 has one more merge. Blocked-merge P=4 has
// six phases, three radix sorts and three compare-splits, over pair
// exchanges that rotate the home array and two spares. Radix sort
// charges four times in each of its three u32 digit passes (count,
// ranks, pack, unpack) and sample sort four times (local sort,
// splitters, pack, merge). Each canceled sort returns ErrCanceled and
// releases its keys, the next sort on the same engine is correct and
// leaves the canceled input alone, and the keys of a last canceled
// sort are collectable while the engine lives.
func TestInPlaceCancelThenReuse(t *testing.T) {
	for _, c := range []struct {
		name   string
		cfg    Config
		phases int
	}{
		{"round", Config{Processors: 2, Backend: Native}, 3},
		{"smart/P=4/round", Config{Processors: 4, Backend: Native}, 4},
		{"blocked-merge/P=4/phase", Config{Processors: 4, Algorithm: BlockedMergeBitonic, Backend: Native}, 6},
		{"radix/P=4/charge", Config{Processors: 4, Algorithm: RadixSort, Backend: Native}, 12},
		{"sample/P=4/charge", Config{Processors: 4, Algorithm: SampleSort, Backend: Native}, 4},
	} {
		for at := 0; at < c.phases; at++ {
			t.Run(fmt.Sprintf("%s=%d", c.name, at), func(t *testing.T) {
				cancelAfter(t, c.cfg, at)
			})
		}
	}
}

// cancelAfter runs one TestInPlaceCancelThenReuse case: a warm sort,
// a sort canceled at processor 0's compute charge at, a sort that must
// leave the canceled input alone, and a second canceled sort whose
// keys must be collectable once the test drops them.
func cancelAfter(t *testing.T, cfg Config, at int) {
	c := &cancelAt{at: at}
	cfg.WrapCharger = func(inner spmd.Charger) spmd.Charger {
		c.Charger = inner
		return c
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sortAndCheck(t, e, workload.Elems[uint32](workload.FullRange, 1<<20, 21))

	a := workload.Elems[uint32](workload.FullRange, 1<<20, 22)
	cancelSort(t, e, c, a)
	assertReleased(t, e, a)
	kept := slices.Clone(a)
	sortAndCheck(t, e, workload.Elems[uint32](workload.FullRange, 1<<20, 23))
	if !slices.Equal(a, kept) {
		t.Fatal("the sort after the cancel changed the canceled input")
	}

	b := workload.Elems[uint32](workload.FullRange, 1<<20, 24)
	freed := finalized(b)
	cancelSort(t, e, c, b)
	if !freed() {
		t.Fatal("after a canceled Sort, the engine keeps its keys reachable")
	}
}

// cancelSort sorts keys on e with c armed and fails unless the sort is
// canceled at c's charge.
func cancelSort(t *testing.T, e *Engine, c *cancelAt, keys []uint32) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.seen = 0
	c.cancel.Store(&cancel)
	if _, err := e.SortContext(ctx, keys); !errors.Is(err, spmd.ErrCanceled) {
		t.Fatalf("canceled sort returned %v, want ErrCanceled", err)
	}
	if c.cancel.Load() != nil {
		t.Fatalf("processor 0 made fewer than %d compute charges", c.at+1)
	}
}

// faultLog is an obs sink that keeps the run's events and summary.
type faultLog struct {
	obs.Nop
	mu     sync.Mutex
	events []obs.Event
	end    obs.RunSummary
}

func (l *faultLog) Emit(e obs.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
}

func (l *faultLog) RunEnd(s obs.RunSummary) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.end = s
}

// TestFaultReachesEveryFullSortRound plans a Corrupt fault for each
// middle round of a native P=4 FullSort (three remaps): the fault must
// fire in the round it was planned for, as its event's round says, not
// at the last merge, and Verify must catch the key it flipped.
func TestFaultReachesEveryFullSortRound(t *testing.T) {
	for _, round := range []int{1, 2} {
		t.Run(fmt.Sprintf("round=%d", round), func(t *testing.T) {
			plan := fault.Plan{Kind: fault.Corrupt, Proc: 1, Round: round}
			log := &faultLog{}
			inj := fault.NewInjector(plan).Observe(log)
			e, err := NewEngineOf[uint32](Config{Processors: 4, Backend: Native, Verify: true, WrapCharger: inj.Wrap, Obs: log})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			_, err = e.Sort(workload.Keys(workload.Uniform31, 4<<12, 21))
			var verr *VerifyError
			if !inj.Fired() || !errors.As(err, &verr) {
				t.Fatalf("corrupted run returned %v (fired %v), want a *VerifyError", err, inj.Fired())
			}
			if log.end.Remaps != 4*3 {
				t.Fatalf("the run made %d remaps over its processors, want 4 × 3", log.end.Remaps)
			}
			var fired []obs.Event
			for _, ev := range log.events {
				if ev.Kind == obs.EventFault {
					fired = append(fired, ev)
				}
			}
			if len(fired) != 1 || fired[0].Proc != plan.Proc || fired[0].Round != plan.Round {
				t.Fatalf("fault events %+v, want one at proc %d in round %d", fired, plan.Proc, plan.Round)
			}
		})
	}
}
