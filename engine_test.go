package parbitonic

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"parbitonic/internal/machine"
	"parbitonic/internal/spmd"
)

// TestNewEngineSimOptionsBackend: each SimOptions field is a simulator
// knob. NewEngineOf rejects it under Native with an error naming the
// field, and accepts it, and sorts, under Simulated.
func TestNewEngineSimOptionsBackend(t *testing.T) {
	costs := machine.DefaultCosts()
	for _, tc := range []struct {
		field string
		sim   SimOptions
	}{
		{"ShortMessages", SimOptions{ShortMessages: true}},
		{"SimulateSteps", SimOptions{SimulateSteps: true}},
		{"FusePackUnpack", SimOptions{FusePackUnpack: true}},
		{"Strategy", SimOptions{Strategy: TailRemap}},
		{"Model", SimOptions{Model: &ModelParams{L: 1, O: 1, Gap: 1, GKey: 0.1, ShortKey: 1}}},
		{"Costs", SimOptions{Costs: &costs}},
	} {
		if tc.sim.firstSet() != tc.field {
			t.Fatalf("%s: firstSet = %q", tc.field, tc.sim.firstSet())
		}
		_, err := NewEngine(Config{Processors: 4, Backend: Native, Sim: tc.sim})
		if err == nil || !strings.Contains(err.Error(), "Sim."+tc.field) {
			t.Errorf("Native with Sim.%s: err = %v, want an error naming the field", tc.field, err)
		}
		e, err := NewEngine(Config{Processors: 4, Backend: Simulated, Sim: tc.sim})
		if err != nil {
			t.Errorf("Simulated with Sim.%s: %v", tc.field, err)
			continue
		}
		keys := make([]uint32, 256)
		rng := rand.New(rand.NewSource(7))
		for i := range keys {
			keys[i] = rng.Uint32()
		}
		ref := sortedRef(keys)
		if _, err := e.Sort(keys); err != nil {
			t.Errorf("Simulated with Sim.%s: sort: %v", tc.field, err)
		} else if !slices.Equal(keys, ref) {
			t.Errorf("Simulated with Sim.%s: output not sorted", tc.field)
		}
		e.Close()
	}
}

// TestEngineReuse runs many sorts of varying sizes and contents
// through ONE engine per backend and checks every output against the
// standard library — the pooled-engine contract internal/serve relies
// on: construction once, correct results forever after.
func TestEngineReuse(t *testing.T) {
	for _, backend := range []Backend{Simulated, Native} {
		for _, alg := range []Algorithm{SmartBitonic, SampleSort} {
			e, err := NewEngine(Config{Processors: 4, Algorithm: alg, Backend: backend})
			if err != nil {
				t.Fatalf("%v/%v: NewEngine: %v", backend, alg, err)
			}
			rng := rand.New(rand.NewSource(42))
			for run, n := range []int{64, 256, 64, 1024, 32, 256} {
				keys := make([]uint32, n)
				for i := range keys {
					keys[i] = rng.Uint32()
				}
				ref := sortedRef(keys)
				if _, err := e.Sort(keys); err != nil {
					t.Fatalf("%v/%v run %d: %v", backend, alg, run, err)
				}
				for i := range keys {
					if keys[i] != ref[i] {
						t.Fatalf("%v/%v run %d: output diverges from reference at %d", backend, alg, run, i)
					}
				}
			}
		}
	}
}

// TestEngineReuseAfterFailure checks a pooled engine survives an
// aborted run: a pre-canceled context fails fast with the typed error,
// and the very next sort on the same engine is correct (the spare
// arrays an aborted run leaves on each processor must not leak into
// the next run's output).
func TestEngineReuseAfterFailure(t *testing.T) {
	for _, backend := range []Backend{Simulated, Native} {
		e, err := NewEngine(Config{Processors: 4, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]uint32, 256)
		for i := range keys {
			keys[i] = uint32(len(keys) - i)
		}
		// Warm the spare arrays with a successful run first.
		if _, err := e.Sort(keys); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := e.SortContext(ctx, keys); err == nil {
			t.Fatalf("%v: canceled sort succeeded", backend)
		}
		for i := range keys {
			keys[i] = uint32(i % 37)
		}
		ref := sortedRef(keys)
		if _, err := e.Sort(keys); err != nil {
			t.Fatalf("%v: sort after failure: %v", backend, err)
		}
		for i := range keys {
			if keys[i] != ref[i] {
				t.Fatalf("%v: post-failure output wrong at %d", backend, i)
			}
		}
		_ = spmd.ErrCanceled // typed-error documentation anchor
	}
}

// TestSortPaddedNoRetention is the regression test for the pooled
// SortPadded staging buffer: results must be copied out, never
// returned as views into the engine's recycled padBuf, so a later
// padded sort on the same engine cannot corrupt an earlier result.
func TestSortPaddedNoRetention(t *testing.T) {
	e, err := NewEngine(Config{Processors: 4, Backend: Native})
	if err != nil {
		t.Fatal(err)
	}
	first := []uint32{9, 3, 7, 1, 8, 2, 6} // odd length forces padding
	want := sortedRef(first)
	if _, err := e.SortPadded(first); err != nil {
		t.Fatal(err)
	}
	if len(e.padBuf) == 0 {
		t.Fatal("padded run did not use the engine's recycled buffer")
	}
	if &first[0] == &e.padBuf[0] {
		t.Fatal("SortPadded returned a view into the recycled pad buffer")
	}
	// Scribble over the recycled buffer the way the next pooled request
	// would: if the first result aliased it, this corrupts the result.
	second := make([]uint32, 100)
	for i := range second {
		second[i] = uint32(1000 + i%13)
	}
	if _, err := e.SortPadded(second); err != nil {
		t.Fatal(err)
	}
	for i := range e.padBuf {
		e.padBuf[i] = 0xDEAD
	}
	for i := range first {
		if first[i] != want[i] {
			t.Fatalf("first result corrupted by pooled reuse at %d: got %d want %d", i, first[i], want[i])
		}
	}
}

// TestPaddedSize pins the padded-shape contract batching layers build
// buffers against.
func TestPaddedSize(t *testing.T) {
	cases := []struct{ keys, p, want int }{
		{1, 1, 1},
		{3, 1, 4},
		{1, 4, 8},   // minimum 2 keys per processor
		{7, 4, 8},   // rounds to share 2
		{9, 4, 16},  // share 4 after ceil-div
		{64, 4, 64}, // already exact
		{65, 4, 128},
	}
	for _, c := range cases {
		if got := PaddedSize(c.keys, c.p); got != c.want {
			t.Errorf("PaddedSize(%d, %d) = %d, want %d", c.keys, c.p, got, c.want)
		}
	}
}

// BenchmarkEngineReuse quantifies what pooling buys: the same 1k-key
// request sorted through one long-lived engine vs paying engine
// construction per request (the EXPERIMENTS.md batching baseline).
func BenchmarkEngineReuse(b *testing.B) {
	const n = 1024
	cfg := Config{Processors: 4, Backend: Native}
	src := make([]uint32, n)
	rng := rand.New(rand.NewSource(7))
	for i := range src {
		src[i] = rng.Uint32()
	}
	keys := make([]uint32, n)

	b.Run("pooled-engine", func(b *testing.B) {
		e, err := NewEngine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(keys, src)
			if _, err := e.Sort(keys); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-request-engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(keys, src)
			if _, err := Sort(keys, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
