package serve

import (
	"sync"

	"parbitonic"
	"parbitonic/element"
)

// poolKey is the engine shape: engines are interchangeable exactly
// when processor count, backend, algorithm and the padded
// keys-per-processor share agree (share keeps each processor's spare
// arrays and compiled schedule right-sized for the traffic that
// produced them). The element
// type is fixed by the pool's type parameter, not the key.
type poolKey struct {
	p       int
	backend parbitonic.Backend
	alg     parbitonic.Algorithm
	share   int
}

// keyFor buckets a request size into the engine shape it needs.
func keyFor(cfg parbitonic.Config, totalKeys int) poolKey {
	p := cfg.Processors
	return poolKey{
		p:       p,
		backend: cfg.Backend,
		alg:     cfg.Algorithm,
		share:   parbitonic.PaddedSize(totalKeys, p) / p,
	}
}

// evictAfter is how many consecutive unhealthy Puts a shape tolerates
// before its whole idle set is evicted: if three engines of one shape
// fail in a row, the fault is probably shape-wide (bad buffer sizing,
// poisoned per-processor state) rather than one sick engine, so the
// remaining idle engines of that shape are suspect too.
const evictAfter = 3

// PoolOf recycles parbitonic engines of one element type, keyed by
// shape. Get hands out an idle engine of the right shape or builds
// one; Put returns it with a health verdict — unhealthy engines are
// quarantined (destroyed, never recycled), and a run of consecutive
// unhealthy Puts for one shape evicts that shape's whole idle set.
// Each engine is used by one goroutine at a time (engines are not
// concurrency-safe); the pool itself is safe for concurrent use. Idle
// engines per shape are capped — extras are closed and released, so a
// traffic spike does not pin its high-water memory forever.
type PoolOf[E element.Elem] struct {
	mu          sync.Mutex
	idle        map[poolKey][]*parbitonic.EngineOf[E]
	failStreak  map[poolKey]int // consecutive unhealthy Puts per shape
	perKey      int
	gets        uint64
	hits        uint64
	quarantined uint64
	evicted     uint64
}

// Pool is the uint32 engine pool, the shape existing callers use.
type Pool = PoolOf[uint32]

// NewPool creates a uint32 engine pool keeping at most perKey idle
// engines per shape (perKey < 1 means 4).
func NewPool(perKey int) *Pool { return NewPoolOf[uint32](perKey) }

// NewPoolOf creates a pool of E-element engines keeping at most perKey
// idle engines per shape (perKey < 1 means 4).
func NewPoolOf[E element.Elem](perKey int) *PoolOf[E] {
	if perKey < 1 {
		perKey = 4
	}
	return &PoolOf[E]{
		idle:       make(map[poolKey][]*parbitonic.EngineOf[E]),
		failStreak: make(map[poolKey]int),
		perKey:     perKey,
	}
}

// Get returns an engine built from cfg and sized for totalKeys keys,
// reusing an idle one when the shape matches. The caller must hand it
// back with Put (with the same totalKeys) when the run completes —
// including after a failed run — along with a health verdict for the
// run (see resilience.EngineHealthy).
func (pl *PoolOf[E]) Get(cfg parbitonic.Config, totalKeys int) (*parbitonic.EngineOf[E], error) {
	k := keyFor(cfg, totalKeys)
	pl.mu.Lock()
	pl.gets++
	if free := pl.idle[k]; len(free) > 0 {
		e := free[len(free)-1]
		pl.idle[k] = free[:len(free)-1]
		pl.hits++
		pl.mu.Unlock()
		return e, nil
	}
	pl.mu.Unlock()
	return parbitonic.NewEngineOf[E](cfg)
}

// Put returns an engine to the pool under the shape it was fetched
// for. A healthy engine is recycled (beyond the per-shape cap it is
// simply dropped) and clears its shape's failure streak. An unhealthy
// engine — one whose run panicked or failed verification — is
// quarantined: destroyed instead of recycled, because an engine that
// just proved it can corrupt data has forfeited the benefit of the
// doubt. evictAfter consecutive unhealthy Puts for one shape evict
// that shape's entire idle set.
func (pl *PoolOf[E]) Put(e *parbitonic.EngineOf[E], totalKeys int, healthy bool) {
	if e == nil {
		return
	}
	k := keyFor(e.Config(), totalKeys)
	pl.mu.Lock()
	if healthy {
		pl.failStreak[k] = 0
		if len(pl.idle[k]) < pl.perKey {
			pl.idle[k] = append(pl.idle[k], e)
			pl.mu.Unlock()
			return
		}
		pl.mu.Unlock()
		e.Close() // over the cap: released, not recycled
		return
	}
	pl.quarantined++
	pl.failStreak[k]++
	var evicted []*parbitonic.EngineOf[E]
	if pl.failStreak[k] >= evictAfter {
		pl.failStreak[k] = 0
		evicted = pl.idle[k]
		pl.evicted += uint64(len(evicted))
		delete(pl.idle, k)
	}
	pl.mu.Unlock()
	e.Close()
	for _, v := range evicted {
		v.Close()
	}
}

// Close releases every idle engine and empties the pool. Engines
// currently checked out are untouched — their Put after Close recycles
// or releases them as usual. The pool stays usable (a fresh Get just
// builds), so Close is a drain, not a terminal state.
func (pl *PoolOf[E]) Close() {
	pl.mu.Lock()
	idle := pl.idle
	pl.idle = make(map[poolKey][]*parbitonic.EngineOf[E])
	pl.mu.Unlock()
	for _, free := range idle {
		for _, e := range free {
			e.Close()
		}
	}
}

// PoolStats is a snapshot of pool effectiveness counters.
type PoolStats struct {
	Gets        uint64 // total Get calls
	Hits        uint64 // Gets served by an idle engine (no construction)
	Idle        int    // engines currently parked, all shapes
	Quarantined uint64 // engines destroyed on an unhealthy Put
	Evicted     uint64 // idle engines evicted by a shape failure streak
}

// Stats returns a snapshot of the pool's counters.
func (pl *PoolOf[E]) Stats() PoolStats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	idle := 0
	for _, free := range pl.idle {
		idle += len(free)
	}
	return PoolStats{
		Gets: pl.gets, Hits: pl.hits, Idle: idle,
		Quarantined: pl.quarantined, Evicted: pl.evicted,
	}
}
