package parbitonic

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"parbitonic/element"
	"parbitonic/internal/core"
	"parbitonic/internal/intbits"
	"parbitonic/internal/machine"
	"parbitonic/internal/native"
	"parbitonic/internal/obs"
	"parbitonic/internal/psort"
	"parbitonic/internal/schedule"
	"parbitonic/internal/spmd"
	"parbitonic/internal/verify"
)

// EngineOf is a reusable sorting engine over element type E: the
// expensive construction a Sort call pays — worker setup, the P×P
// exchange board, barrier, compiled schedules — happens once in
// NewEngineOf, and every subsequent Sort call on the engine reuses it,
// along with the engine's recycled padding buffer and each processor's
// spare arrays. Every shape sorts in views of the caller's slice, so
// repeated sorts of similar sizes on one engine allocate almost
// nothing beyond what the algorithms themselves churn. The engine
// holds no reference to a caller's keys once Sort returns.
//
// The package-level Sort functions construct a throwaway engine per
// call; a server that sorts many requests should hold engines instead
// (internal/serve pools them keyed by shape).
//
// An engine is NOT safe for concurrent use: at most one Sort call may
// be in flight at a time. It remains usable after any failure —
// cancellation, deadline, contained panic, or verification failure —
// exactly like the underlying spmd.BackendOf.
type EngineOf[E element.Elem] struct {
	cfg Config
	m   spmd.BackendOf[E]

	// views is the recycled data header table of a run: one
	// capacity-capped view of the caller's slice per processor. Its
	// entries are cleared before Sort returns, so the engine never
	// retains keys.
	views [][]E

	// padBuf is the recycled SortPadded staging buffer. Results are
	// always copied out of it before returning, so no caller ever holds
	// a reference into it across reuse (see TestSortPaddedNoRetention).
	padBuf []E

	// compiled is the algorithm body for compiledN keys per processor:
	// a bitonic body from core.Compile, whose schedules, remap plans and
	// gather tables are built once and amortized over every sort of the
	// same size, or a psort comparator body, bound once. A steady-state
	// Sort allocates nothing for either.
	compiled  func(*spmd.ProcOf[E])
	compiledN int
}

// Engine is the uint32 engine, the element type of the paper's
// experiments and of the original single-type API.
type Engine = EngineOf[uint32]

// NewEngineOf validates cfg, builds its execution backend once, and
// returns the reusable engine for element type E. Everything in cfg
// except the per-call key slice is fixed for the engine's lifetime:
// processor count, algorithm, backend, simulator options, telemetry
// sinks. A Native config with a non-zero Sim is an error naming the
// first field set.
func NewEngineOf[E element.Elem](cfg Config) (*EngineOf[E], error) {
	if cfg.Auto {
		return nil, fmt.Errorf("parbitonic: Config.Auto is resolved per sort size and cannot build a fixed-shape engine; use the package-level Sort/SortPadded, or PlanFor + Plan.Apply")
	}
	p := cfg.Processors
	if p < 1 || p&(p-1) != 0 {
		return nil, fmt.Errorf("parbitonic: Processors must be a positive power of two, got %d", p)
	}
	if err := validateOverrides(cfg); err != nil {
		return nil, err
	}
	var labels map[string]string
	if cfg.Obs != nil {
		labels = map[string]string{
			"alg":     cfg.Algorithm.String(),
			"backend": cfg.Backend.String(),
			"elem":    element.TypeOf[E]().String(),
		}
	}
	var m spmd.BackendOf[E]
	var err error
	switch cfg.Backend {
	case Native:
		m, err = native.NewOf[E](native.Config{P: p, Sink: cfg.Obs, Labels: labels, WrapCharger: cfg.WrapCharger})
	case Simulated:
		mc := machineConfig(cfg)
		mc.Sink = cfg.Obs
		mc.Labels = labels
		mc.WrapCharger = cfg.WrapCharger
		m, err = machine.NewOf[E](mc)
	default:
		return nil, fmt.Errorf("parbitonic: unknown backend %v", cfg.Backend)
	}
	if err != nil {
		return nil, err
	}
	return &EngineOf[E]{cfg: cfg, m: m}, nil
}

// NewEngine builds a uint32 engine; see NewEngineOf.
func NewEngine(cfg Config) (*Engine, error) { return NewEngineOf[uint32](cfg) }

// P returns the engine's processor count.
func (e *EngineOf[E]) P() int { return e.cfg.Processors }

// Config returns a copy of the configuration the engine was built with.
func (e *EngineOf[E]) Config() Config { return e.cfg }

// Close releases the engine's backend resources — in particular the
// native backend's parked worker goroutines — deterministically.
// Idempotent; must not be called while a sort is in flight, and the
// engine is unusable afterwards. Engines that are simply dropped are
// still reclaimed (a finalizer stops the workers once the engine is
// collected); Close just makes the release prompt.
func (e *EngineOf[E]) Close() {
	if c, ok := e.m.(interface{ Close() }); ok {
		c.Close()
	}
}

// Sort sorts keys in place (ascending by key) and returns the run
// statistics; see the package-level Sort for the shape requirements.
// It is SortContext with a background context.
func (e *EngineOf[E]) Sort(keys []E) (Result, error) {
	return e.SortContext(context.Background(), keys)
}

// rejectNaN returns an error when a float workload contains a NaN key.
// The bitonic networks (and the radix order images) give NaN a
// well-defined place after +Inf, but "sorted" output containing NaN
// violates the transitivity callers expect of float comparisons, so
// the API refuses it up front. Non-float element types scan nothing.
func rejectNaN[E element.Elem](keys []E) error {
	switch any(*new(E)).(type) {
	case float32, float64:
		for i, k := range keys {
			if element.IsNaN(k) {
				return fmt.Errorf("parbitonic: keys[%d] is NaN; NaN keys are not sortable", i)
			}
		}
	}
	return nil
}

// SortContext sorts keys in place under ctx, reusing the engine's
// backend and buffers. len(keys) must divide into power-of-two
// per-processor shares exactly as for the package-level Sort; failure
// semantics are those of the package-level SortContext: every shape
// sorts in views of keys, writing into them while the run is in
// flight, so a failed run leaves keys unspecified.
func (e *EngineOf[E]) SortContext(ctx context.Context, keys []E) (Result, error) {
	cfg := e.cfg
	p := cfg.Processors
	if len(keys) == 0 || len(keys)%p != 0 {
		return Result{}, fmt.Errorf("parbitonic: %d keys cannot be divided over %d processors", len(keys), p)
	}
	n := len(keys) / p
	if n&(n-1) != 0 {
		return Result{}, fmt.Errorf("parbitonic: keys per processor (%d) must be a power of two", n)
	}
	if err := rejectNaN(keys); err != nil {
		return Result{}, err
	}

	var sum verify.Checksum
	if cfg.Verify {
		sum = verify.Sum(keys)
	}

	// Every body sorts in views of keys, with its spare arrays on each
	// processor's Scratch. The compiled body depends only on the
	// engine's fixed config and the per-processor share n, so repeated
	// sorts of one size reuse it — schedule and remap plans included.
	data := e.lend(keys, p, n)
	var res spmd.Result
	var err error
	if e.compiled == nil || e.compiledN != n {
		e.compiled, err = compile[E](cfg, p, n)
		e.compiledN = n
		if err != nil {
			e.compiled = nil
		}
	}
	if err == nil {
		res, err = e.m.RunContext(ctx, data, e.compiled)
	}
	if err == nil {
		err = e.collect(keys, sum, res.Time)
	}
	// The engine keeps no reference to keys past this call.
	clear(e.views)
	e.m.ReleaseData()
	if err != nil {
		return Result{}, err
	}

	result := Result{
		Algorithm:    cfg.Algorithm,
		Keys:         len(keys),
		Time:         res.Time,
		Remaps:       res.Mean.Remaps,
		VolumeSent:   res.Mean.VolumeSent,
		MessagesSent: res.Mean.MessagesSent,
		ComputeTime:  res.Mean.ComputeTime,
		PackTime:     res.Mean.PackTime,
		TransferTime: res.Mean.TransferTime,
		UnpackTime:   res.Mean.UnpackTime,
	}
	if cfg.Observe != nil {
		cfg.Observe(buildReport(cfg, len(keys), element.Words[E](), result))
	}
	return result, nil
}

// compile returns the body that sorts n keys per processor on p
// processors with cfg's algorithm.
func compile[E element.Elem](cfg Config, p, n int) (func(*spmd.ProcOf[E]), error) {
	switch cfg.Algorithm {
	case SmartBitonic, CyclicBlockedBitonic, BlockedMergeBitonic:
		return core.Compile[E](p, n, coreOptions(cfg, p, n))
	case SampleSort:
		return psort.SampleBody[E], nil
	case RadixSort:
		return psort.RadixBody[E], nil
	}
	return nil, fmt.Errorf("parbitonic: unknown algorithm %v", cfg.Algorithm)
}

// coreOptions maps the public Config to core.Options for the three
// bitonic algorithms at machine shape (p, n). Native smart sorts, and
// simulated ones that ask for fusion alone, run core.FusedSmart.
// Fusion combined with step simulation or a non-Head strategy is
// passed through for core.Options.Validate to reject.
func coreOptions(cfg Config, p, n int) core.Options {
	sim := cfg.Sim
	opts := core.Options{Fused: sim.FusePackUnpack, Strategy: sim.Strategy.schedule()}
	switch cfg.Algorithm {
	case CyclicBlockedBitonic:
		opts.Algorithm = core.CyclicBlocked
	case BlockedMergeBitonic:
		opts.Algorithm = core.BlockedMerge
	default:
		if cfg.Backend == Native || sim.FusePackUnpack && !sim.SimulateSteps && sim.Strategy == HeadRemap {
			return core.FusedSmart(p, n)
		}
		opts.Algorithm = core.Smart
	}
	if sim.SimulateSteps || opts.Strategy != schedule.Head {
		opts.Compute = core.Simulated
	}
	return opts
}

// collect verifies the finished run's output against the input
// checksum when cfg.Verify is set, then copies it into keys, skipping
// every processor slice that already is its own share of keys. A
// processor whose run ended in a spare array (or, for sample sort, in
// a merge buffer of its own) is copied.
func (e *EngineOf[E]) collect(keys []E, sum verify.Checksum, clock float64) error {
	final := e.m.Data()
	if e.cfg.Verify {
		if verr := verify.Distributed(final, sum); verr != nil {
			if e.cfg.Obs != nil {
				e.cfg.Obs.Emit(obs.Event{
					Kind:   obs.EventVerifyFailure,
					Clock:  clock,
					Detail: verr.Error(),
					Wall:   time.Now().UnixNano(),
				})
			}
			return verr
		}
	}
	pos := 0
	for _, d := range final {
		if len(d) > 0 && pos < len(keys) && &d[0] == &keys[pos] {
			pos += len(d) // the result is already here
			continue
		}
		pos += copy(keys[pos:], d)
	}
	if pos != len(keys) {
		return fmt.Errorf("parbitonic: internal error, %d of %d keys returned", pos, len(keys))
	}
	return nil
}

// lend returns the views of keys a run sorts in: processor i's share,
// its capacity capped at its own end so nothing that reslices a view
// can reach a neighbour's share.
func (e *EngineOf[E]) lend(keys []E, p, n int) [][]E {
	if len(e.views) != p {
		e.views = make([][]E, p)
	}
	for i := range e.views {
		e.views[i] = keys[i*n : (i+1)*n : (i+1)*n]
	}
	return e.views
}

// SortPadded sorts keys of arbitrary length by padding with copies of
// its largest element to the next valid shape, exactly like the package-level
// SortPadded, but staging the padded run in a buffer the engine
// recycles across calls. The sorted result is always copied back into
// keys — the caller never receives a view into the recycled buffer.
// It is SortPaddedContext with a background context.
func (e *EngineOf[E]) SortPadded(keys []E) (Result, error) {
	return e.SortPaddedContext(context.Background(), keys)
}

// SortPaddedContext is SortPadded under a context; see SortContext for
// failure semantics.
func (e *EngineOf[E]) SortPaddedContext(ctx context.Context, keys []E) (Result, error) {
	p := e.cfg.Processors
	if len(keys) == 0 {
		return Result{}, fmt.Errorf("parbitonic: no keys")
	}
	total := PaddedSize(len(keys), p)
	if total == len(keys) {
		return e.SortContext(ctx, keys)
	}
	if cap(e.padBuf) < total {
		e.padBuf = make([]E, total)
	}
	padded := e.padBuf[:total]
	copy(padded, keys)
	// Padding copies the input's own largest element rather than
	// element.Max, so it sets no key bit the input lacks and a radix
	// sort partitions under the input's width, not the type's.
	pad := largest(keys)
	for i := len(keys); i < total; i++ {
		padded[i] = pad
	}
	res, err := e.SortContext(ctx, padded)
	if err != nil {
		return Result{}, err
	}
	// The padding sorts to the tail, possibly interleaved with genuine
	// elements that order equal to it: copies of it, KV64 records with
	// its key and other payloads, -0.0 beside a +0.0 pad. Strip exactly
	// the pad count of elements bit-equal to the pad from the tail;
	// everything else is kept, so the result is exactly the sorted
	// input multiset.
	padBits, padAux := element.Bits(pad), element.Aux(pad)
	padCount := total - len(keys)
	i, j := total, len(keys) // i-j pads remain in padded[:i]
	for padCount > 0 {
		i--
		if element.Bits(padded[i]) == padBits && element.Aux(padded[i]) == padAux {
			padCount--
			continue
		}
		if j == 0 {
			return Result{}, fmt.Errorf("parbitonic: internal error, padding strip lost %d pads", padCount)
		}
		j--
		keys[j] = padded[i]
	}
	copy(keys[:j], padded[:j])
	return res, nil
}

// largest returns the largest element of keys by order image: +0.0
// over -0.0 (the max builtin's rule), and for KV64 the first record
// with the largest key.
func largest[E element.Elem](keys []E) E {
	switch s := any(keys).(type) {
	case []uint32:
		return any(slices.Max(s)).(E)
	case []uint64:
		return any(slices.Max(s)).(E)
	case []float32:
		return any(slices.Max(s)).(E)
	case []float64:
		return any(slices.Max(s)).(E)
	}
	kv := any(keys).([]element.KV64)
	return any(slices.MaxFunc(kv, func(a, b element.KV64) int { return cmp.Compare(a.K, b.K) })).(E)
}

// PaddedSize returns the padded key count a SortPadded run of `keys`
// keys uses on p processors: the smallest total that divides into
// power-of-two per-processor shares of at least 2 keys (for p > 1) and
// holds the input. It is what batching layers must size their padded
// buffers to.
func PaddedSize(keys, p int) int {
	n := intbits.CeilPow2((keys + p - 1) / p)
	if p > 1 && n < 2 {
		n = 2 // the bitonic algorithms need at least two keys per processor
	}
	return n * p
}
