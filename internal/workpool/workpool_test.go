package workpool

import (
	"sync"
	"sync/atomic"
	"testing"
)

// ParallelFor runs f over [0,n) in grain-sized tiles: ParallelTiles
// over a function, for tests whose tiles are closures.
func (p *Pool) ParallelFor(n, grain int, f func(lo, hi int)) {
	p.ParallelTiles(n, grain, tileFunc(f))
}

type tileFunc func(lo, hi int)

func (f tileFunc) Tile(lo, hi int) { f(lo, hi) }

// TestParallelForCoversEveryIndex proves every index is executed
// exactly once across pool sizes, tile grains and index-space sizes,
// including the inline fast paths.
func TestParallelForCoversEveryIndex(t *testing.T) {
	for _, size := range []int{1, 2, 4, 8} {
		p := New(size)
		for _, n := range []int{0, 1, 7, 64, 1000} {
			for _, grain := range []int{1, 8, 64, 1024} {
				hits := make([]int32, n)
				p.ParallelFor(n, grain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("size=%d n=%d grain=%d: index %d executed %d times", size, n, grain, i, h)
					}
				}
			}
		}
		p.Close()
	}
}

// TestParallelForWorkConserving proves completion does not depend on
// helper availability: saturate every helper with a blocking job, then
// run another ParallelFor — the caller must finish it alone.
func TestParallelForWorkConserving(t *testing.T) {
	p := New(4)
	defer p.Close()
	release := make(chan struct{})
	blocked := make(chan struct{}, 3)
	go func() {
		p.ParallelFor(3, 1, func(lo, hi int) {
			blocked <- struct{}{}
			<-release
		})
	}()
	// The blocking job's caller takes one tile itself; up to two
	// helpers take the rest. Whatever the split, all helpers that will
	// ever touch it are now stuck, and the next job must still finish.
	<-blocked
	var sum atomic.Int64
	p.ParallelFor(100, 10, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum.Add(int64(i))
		}
	})
	close(release)
	if got := sum.Load(); got != 99*100/2 {
		t.Fatalf("sum = %d, want %d", got, 99*100/2)
	}
}

// TestParallelForNilAndSingle covers the degenerate pools: a nil pool
// and a one-lane pool both run inline.
func TestParallelForNilAndSingle(t *testing.T) {
	var nilPool *Pool
	if nilPool.Size() != 1 {
		t.Fatalf("nil pool size = %d, want 1", nilPool.Size())
	}
	ran := 0
	nilPool.ParallelFor(10, 3, func(lo, hi int) { ran += hi - lo })
	if ran != 10 {
		t.Fatalf("nil pool ran %d of 10", ran)
	}
	one := New(0) // clamps to 1
	defer one.Close()
	if one.Size() != 1 {
		t.Fatalf("one-lane pool size = %d, want 1", one.Size())
	}
	ran = 0
	one.ParallelFor(10, 100, func(lo, hi int) { ran += hi - lo })
	if ran != 10 {
		t.Fatalf("one-lane pool ran %d of 10", ran)
	}
}

// TestParallelForPanicPropagates proves a panic in any tile reaches
// the submitting caller after all lanes have stopped.
func TestParallelForPanicPropagates(t *testing.T) {
	for _, size := range []int{1, 4} {
		p := New(size)
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("size=%d: recovered %v, want boom", size, r)
				}
			}()
			p.ParallelFor(64, 4, func(lo, hi int) {
				if lo <= 32 && 32 < hi {
					panic("boom")
				}
			})
			t.Fatalf("size=%d: ParallelFor returned without panicking", size)
		}()
		p.Close()
	}
}

// TestSharedSingleton proves Shared returns one process-wide pool.
func TestSharedSingleton(t *testing.T) {
	a, b := Shared(), Shared()
	if a != b {
		t.Fatal("Shared() returned distinct pools")
	}
	if a.Size() < 1 {
		t.Fatalf("shared pool size = %d", a.Size())
	}
}

// hits counts executions per index, as a Tiler.
type hits []int32

func (h hits) Tile(lo, hi int) {
	for i := lo; i < hi; i++ {
		atomic.AddInt32(&h[i], 1)
	}
}

// TestParallelTilesRecyclesJobs drives pooled jobs from several
// submitters at once, each job following a panicking one: a recycled
// job must start with a fresh cursor and no stale panic, so every call
// runs each index exactly once and returns normally.
func TestParallelTilesRecyclesJobs(t *testing.T) {
	p := New(4)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 200; it++ {
				func() {
					defer func() { recover() }()
					p.ParallelFor(16, 2, func(lo, hi int) { panic("boom") })
				}()
				h := make(hits, 100)
				p.ParallelTiles(len(h), 7, h)
				for i, n := range h {
					if n != 1 {
						t.Errorf("index %d executed %d times", i, n)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
