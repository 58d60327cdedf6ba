// Package workpool provides the process-wide work-stealing pool behind
// the native backend's local phases. The SPMD runtime gives every
// virtual processor its own goroutine, so a run at P > GOMAXPROCS (or
// several pooled engines running at once — the serve layer's batching
// case) can put far more runnable goroutines on the scheduler than
// there are cores. The pool inverts that: heavy tile-granular work
// (local sorts, bitonic merges) is offered to a fixed set of helper
// workers — GOMAXPROCS-1 for the shared pool — and the submitting
// goroutine always participates, so idle cores steal tiles from busy
// virtual processors while the aggregate executing-worker count stays
// capped at GOMAXPROCS no matter how many engines are in flight.
//
// ParallelTiles is work-conserving: the caller claims tiles itself, so a
// job completes even if every helper is busy elsewhere, and a pool of
// size 1 degenerates to a plain loop with no synchronization at all.
// Correctness therefore never depends on helper availability — helpers
// only add throughput — which is what makes one shared pool safe to
// use from arbitrarily many concurrent engines.
package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool executes tile-granular work with a bounded helper count.
type Pool struct {
	spares    int
	jobs      chan *job
	closeOnce sync.Once
	closed    chan struct{}
}

// Tiler is the work of one ParallelTiles call: Tile runs the tile
// [lo, hi) of the index space.
type Tiler interface {
	Tile(lo, hi int)
}

// job is one ParallelTiles invocation: a [0,n) index space claimed in
// grain-sized tiles via an atomic cursor. Whoever holds a tile —
// caller or helper — runs t on it; the claim is the steal. Jobs are
// stashed: once the submitter's Wait returns no helper touches the job
// again, so it is recycled for the next call.
type job struct {
	next  atomic.Int64
	n     int64
	grain int64
	t     Tiler
	wg    sync.WaitGroup
	fail  atomic.Pointer[panicValue]
}

type panicValue struct{ v any }

var jobs Stash

// Stash is a free list of small values that, unlike a sync.Pool, never
// drops one on a collection or a GOMAXPROCS change.
type Stash struct {
	mu   sync.Mutex
	free []any
}

// Get takes a stashed value, or nil.
func (s *Stash) Get() (v any) {
	s.mu.Lock()
	if n := len(s.free); n > 0 {
		v, s.free = s.free[n-1], s.free[:n-1]
	}
	s.mu.Unlock()
	return v
}

// Put stashes v for a later Get.
func (s *Stash) Put(v any) {
	s.mu.Lock()
	s.free = append(s.free, v)
	s.mu.Unlock()
}

// New creates a pool with size execution lanes: the caller of
// ParallelTiles is always one lane, so size-1 persistent helper
// goroutines are started. size < 1 is treated as 1 (no helpers).
func New(size int) *Pool {
	if size < 1 {
		size = 1
	}
	p := &Pool{
		spares: size - 1,
		jobs:   make(chan *job, 4*size),
		closed: make(chan struct{}),
	}
	for i := 0; i < p.spares; i++ {
		go p.worker()
	}
	return p
}

var sharedOnce sync.Once
var sharedPool *Pool

// Shared returns the process-wide pool, sized to GOMAXPROCS at first
// use. Every native engine routes its local phases through it, which
// is what caps the aggregate worker count across concurrently running
// engines at the core count.
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = New(runtime.GOMAXPROCS(0)) })
	return sharedPool
}

// Size returns the pool's lane count (helpers + the caller).
func (p *Pool) Size() int {
	if p == nil {
		return 1
	}
	return p.spares + 1
}

// Close stops the helper goroutines. For tests of non-shared pools
// only; no ParallelTiles may be in flight or issued afterwards.
func (p *Pool) Close() {
	p.closeOnce.Do(func() { close(p.closed) })
}

func (p *Pool) worker() {
	for {
		select {
		case j := <-p.jobs:
			j.run()
			j.wg.Done()
		case <-p.closed:
			return
		}
	}
}

// run claims and executes tiles until the index space is exhausted. A
// panic out of f is captured once (first wins) and re-raised by the
// submitting caller; the panicking worker stops claiming, the others
// finish their tiles normally.
func (j *job) run() {
	defer func() {
		if r := recover(); r != nil {
			j.fail.CompareAndSwap(nil, &panicValue{r})
		}
	}()
	for {
		start := j.next.Add(j.grain) - j.grain
		if start >= j.n {
			return
		}
		end := start + j.grain
		if end > j.n {
			end = j.n
		}
		j.t.Tile(int(start), int(end))
	}
}

// ParallelTiles runs t over [0,n) in grain-sized tiles, on the caller
// plus however many pool helpers are free — at most enough to give
// every tile its own lane. It returns when every tile has completed.
// Tiles execute in claim order but concurrently; t must be safe for
// concurrent invocation on disjoint ranges. If any invocation panics,
// ParallelTiles re-panics with the first captured value after all
// lanes have stopped. The job is stashed, so the call itself allocates
// nothing in steady state.
//
// The fast path — nil pool, single-lane pool, or n <= grain — calls t
// inline with zero synchronization, so callers can use ParallelTiles
// unconditionally and pay nothing when parallelism is unavailable.
func (p *Pool) ParallelTiles(n, grain int, t Tiler) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if p == nil || p.spares == 0 || n <= grain {
		t.Tile(0, n)
		return
	}
	j, _ := jobs.Get().(*job)
	if j == nil {
		j = new(job)
	}
	j.next.Store(0)
	j.n, j.grain, j.t = int64(n), int64(grain), t
	// One lane per tile beyond the caller's; posting is best-effort —
	// a full queue means every helper is saturated, and the caller
	// completes the job alone.
	posts := (n+grain-1)/grain - 1
	if posts > p.spares {
		posts = p.spares
	}
	for i := 0; i < posts; i++ {
		j.wg.Add(1)
		select {
		case p.jobs <- j:
		default:
			j.wg.Done()
			posts = i
		}
	}
	j.run()
	j.wg.Wait()
	pv := j.fail.Swap(nil)
	j.t = nil
	jobs.Put(j)
	if pv != nil {
		panic(pv.v)
	}
}
