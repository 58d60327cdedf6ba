package parbitonic_test

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"testing"

	"parbitonic"
	"parbitonic/element"
)

// -update-sim-golden regenerates testdata/sim_golden.json from the
// current implementation. The committed file was generated BEFORE the
// shared-memory fast path landed, so the test proves the simulator's
// output — sorted bytes, model time, communication counters, phase
// breakdown — stayed bit-identical across the refactor.
var updateSimGolden = flag.Bool("update-sim-golden", false, "rewrite testdata/sim_golden.json")

type simGoldenEntry struct {
	Case   string  `json:"case"`
	Sum    string  `json:"sum"` // FNV-64a over the sorted output bytes
	Time   float64 `json:"time"`
	Remaps int     `json:"remaps"`
	Volume int     `json:"volume"`
	Msgs   int     `json:"msgs"`
	// Phase times, rounded to 1e-6 µs to stay exact under JSON.
	Compute  float64 `json:"compute"`
	Pack     float64 `json:"pack"`
	Transfer float64 `json:"transfer"`
	Unpack   float64 `json:"unpack"`
}

func round6(v float64) float64 { return math.Round(v*1e6) / 1e6 }

func hashElems[E element.Elem](keys []E) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint64(buf[:], element.Bits(k))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], element.Aux(k))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func simGoldenWorkload[E element.Elem](n int, seed int64) []E {
	rng := rand.New(rand.NewSource(seed))
	out := make([]E, n)
	for i := range out {
		// Bounded signed values exercise duplicates, negatives (for
		// floats) and distinct payloads (for records) at every width.
		v := rng.Intn(1<<16) - 1<<15
		switch s := any(out).(type) {
		case []uint32:
			s[i] = uint32(v + 1<<15)
		case []uint64:
			s[i] = uint64(v+1<<15) << 7
		case []float32:
			s[i] = float32(v) / 8
		case []float64:
			s[i] = float64(v) / 8
		case []element.KV64:
			s[i] = element.KV64{K: uint64(v + 1<<15), V: uint64(i)}
		}
	}
	return out
}

func runSimGoldenCase[E element.Elem](t *testing.T, name string, total int, cfg parbitonic.Config) simGoldenEntry {
	t.Helper()
	keys := simGoldenWorkload[E](total, 1234)
	res, err := parbitonic.Sort(keys, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return simGoldenEntry{
		Case:     name,
		Sum:      hashElems(keys),
		Time:     round6(res.Time),
		Remaps:   res.Remaps,
		Volume:   res.VolumeSent,
		Msgs:     res.MessagesSent,
		Compute:  round6(res.ComputeTime),
		Pack:     round6(res.PackTime),
		Transfer: round6(res.TransferTime),
		Unpack:   round6(res.UnpackTime),
	}
}

// collectSimGolden runs every golden configuration on the simulator.
// The matrix spans algorithms, compute modes, remap strategies, message
// modes and element types, including the irregular regime (P=8, n=32)
// where the optimized non-FullSort path runs.
func collectSimGolden(t *testing.T) []simGoldenEntry {
	t.Helper()
	var out []simGoldenEntry
	add := func(e simGoldenEntry) { out = append(out, e) }

	base := func(p int) parbitonic.Config {
		return parbitonic.Config{Processors: p}
	}

	// Algorithm sweep at P=4, N=4096, u32.
	for _, alg := range []parbitonic.Algorithm{
		parbitonic.SmartBitonic, parbitonic.CyclicBlockedBitonic,
		parbitonic.BlockedMergeBitonic, parbitonic.SampleSort, parbitonic.RadixSort,
	} {
		cfg := base(4)
		cfg.Algorithm = alg
		add(runSimGoldenCase[uint32](t, "alg/"+alg.String(), 4096, cfg))
	}

	// Smart variants: fused, fullsort regime, simulated steps, short messages.
	{
		cfg := base(4)
		cfg.Sim.FusePackUnpack = true
		add(runSimGoldenCase[uint32](t, "smart/fused", 4096, cfg))
		cfg = base(4)
		cfg.Sim.SimulateSteps = true
		add(runSimGoldenCase[uint32](t, "smart/simulated", 4096, cfg))
		cfg = base(4)
		cfg.Sim.ShortMessages = true
		add(runSimGoldenCase[uint32](t, "smart/short", 4096, cfg))
		// Irregular regime: lgP(lgP+1)/2 = 6 > lg n = 5 keeps the fused
		// config on the optimized (non-FullSort) path.
		cfg = base(8)
		cfg.Sim.FusePackUnpack = true
		add(runSimGoldenCase[uint32](t, "smart/fused-irregular", 8*32, cfg))
	}

	// Remap strategies (simulated compute implied for non-Head).
	for _, s := range []parbitonic.RemapStrategy{
		parbitonic.TailRemap, parbitonic.MiddleRemap1, parbitonic.MiddleRemap2,
	} {
		cfg := base(4)
		cfg.Sim.Strategy = s
		add(runSimGoldenCase[uint32](t, fmt.Sprintf("strategy/%d", s), 4096, cfg))
	}

	// Element types at P=4, N=2048, smart default.
	add(runSimGoldenCase[uint32](t, "elem/u32", 2048, base(4)))
	add(runSimGoldenCase[uint64](t, "elem/u64", 2048, base(4)))
	add(runSimGoldenCase[float32](t, "elem/f32", 2048, base(4)))
	add(runSimGoldenCase[float64](t, "elem/f64", 2048, base(4)))
	add(runSimGoldenCase[element.KV64](t, "elem/kv64", 2048, base(4)))

	// P=1 degenerate case.
	add(runSimGoldenCase[uint32](t, "p1", 1024, base(1)))
	return out
}

// TestSimulatedGolden proves the simulated backend's observable output
// is bit-identical to the committed pre-fast-path goldens: the shared-
// memory remap fast path and kernel overhaul must not change a single
// byte of simulated output nor any model-time digit.
func TestSimulatedGolden(t *testing.T) {
	got := collectSimGolden(t)
	const path = "testdata/sim_golden.json"
	if *updateSimGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(got), path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing goldens (run with -update-sim-golden to create): %v", err)
	}
	var want []simGoldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden entry count changed: have %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("simulated output drifted for %s:\n got %+v\nwant %+v", want[i].Case, got[i], want[i])
		}
	}
}
