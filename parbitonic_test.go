package parbitonic

import (
	"sort"
	"testing"
	"testing/quick"

	"parbitonic/internal/workload"
)

func sortedRef(keys []uint32) []uint32 {
	out := append([]uint32(nil), keys...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func allAlgorithms() []Algorithm {
	return []Algorithm{SmartBitonic, CyclicBlockedBitonic, BlockedMergeBitonic, SampleSort, RadixSort}
}

func TestSortAllAlgorithms(t *testing.T) {
	for _, alg := range allAlgorithms() {
		for _, p := range []int{1, 2, 8, 16} {
			keys := workload.Keys(workload.Uniform31, p*256, 11)
			want := sortedRef(keys)
			res, err := Sort(keys, Config{Processors: p, Algorithm: alg})
			if err != nil {
				t.Fatalf("%v P=%d: %v", alg, p, err)
			}
			for i := range want {
				if keys[i] != want[i] {
					t.Fatalf("%v P=%d: wrong key at %d", alg, p, i)
				}
			}
			if res.Keys != p*256 || res.Time <= 0 {
				t.Errorf("%v P=%d: suspicious result %+v", alg, p, res)
			}
			if res.TimePerKey() <= 0 {
				t.Errorf("%v: TimePerKey %v", alg, res.TimePerKey())
			}
		}
	}
}

func TestSortValidation(t *testing.T) {
	keys := make([]uint32, 64)
	cases := []Config{
		{Processors: 0},
		{Processors: 3},
		{Processors: 128}, // 64 keys over 128 procs
		{Processors: 4, Algorithm: Algorithm(99)},         // unknown algorithm
		{Processors: 16, Algorithm: CyclicBlockedBitonic}, // n=4 < P=16
	}
	for i, cfg := range cases {
		if _, err := Sort(keys, cfg); err == nil {
			t.Errorf("case %d should fail: %+v", i, cfg)
		}
	}
	if _, err := Sort[uint32](nil, Config{Processors: 1}); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := Sort(make([]uint32, 48), Config{Processors: 4}); err == nil {
		t.Error("non-power-of-two share should fail")
	}
}

func TestConfigKnobs(t *testing.T) {
	keys := workload.Keys(workload.Uniform31, 16*1024, 3)
	long, err := Sort(append([]uint32(nil), keys...), Config{Processors: 16})
	if err != nil {
		t.Fatal(err)
	}
	short, err := Sort(append([]uint32(nil), keys...), Config{Processors: 16, Sim: SimOptions{ShortMessages: true}})
	if err != nil {
		t.Fatal(err)
	}
	if long.Time >= short.Time {
		t.Errorf("long messages should win: %v vs %v", long.Time, short.Time)
	}
	fused, err := Sort(append([]uint32(nil), keys...), Config{Processors: 16, Sim: SimOptions{FusePackUnpack: true}})
	if err != nil {
		t.Fatal(err)
	}
	if fused.PackTime != 0 || fused.UnpackTime != 0 {
		t.Error("fused run should report zero pack/unpack time")
	}
	sim, err := Sort(append([]uint32(nil), keys...), Config{Processors: 16, Sim: SimOptions{SimulateSteps: true}})
	if err != nil {
		t.Fatal(err)
	}
	if sim.ComputeTime <= long.ComputeTime {
		t.Errorf("simulated steps should cost more compute: %v vs %v", sim.ComputeTime, long.ComputeTime)
	}
	custom := &ModelParams{L: 1, O: 0.5, Gap: 2, GKey: 0.1, ShortKey: 3}
	res, err := Sort(append([]uint32(nil), keys...), Config{Processors: 16, Sim: SimOptions{Model: custom}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TransferTime >= long.TransferTime {
		t.Errorf("cheaper model should lower transfer time: %v vs %v", res.TransferTime, long.TransferTime)
	}
}

func TestBitonicUtilities(t *testing.T) {
	s := []uint32{3, 5, 9, 7, 2, 1}
	if !IsBitonic(s) {
		t.Error("rise-then-fall should be bitonic")
	}
	if IsBitonic([]uint32{1, 5, 2, 6, 3}) {
		t.Error("zigzag should not be bitonic")
	}
	if i := MinIndexBitonic(s); s[i] != 1 {
		t.Errorf("MinIndexBitonic found %d", s[i])
	}
	dst := make([]uint32, len(s))
	SortBitonicSequence(dst, s, true)
	for i := 1; i < len(dst); i++ {
		if dst[i-1] > dst[i] {
			t.Fatalf("not sorted: %v", dst)
		}
	}
}

func TestSmartScheduleFacade(t *testing.T) {
	infos := SmartSchedule(8, 4) // the paper's N=256, P=16 example
	if len(infos) != 7 {
		t.Fatalf("expected 7 remaps, got %d", len(infos))
	}
	wantBits := []int{1, 2, 3, 3, 4, 4, 2}
	for i, info := range infos {
		if info.BitsChanged != wantBits[i] {
			t.Errorf("remap %d: %d bits, want %d", i, info.BitsChanged, wantBits[i])
		}
		if len(info.BitPattern) != 8 {
			t.Errorf("remap %d: bad pattern %q", i, info.BitPattern)
		}
	}
	if infos[0].Kind != "inside" || infos[1].Kind != "crossing" || infos[6].Kind != "last" {
		t.Errorf("unexpected kinds: %v %v %v", infos[0].Kind, infos[1].Kind, infos[6].Kind)
	}
}

func TestPredictFacade(t *testing.T) {
	preds := Predict(20, 4, false, nil)
	if len(preds) != 3 {
		t.Fatalf("want 3 strategies, got %d", len(preds))
	}
	byName := map[string]Prediction{}
	for _, p := range preds {
		byName[p.Strategy] = p
	}
	sm, cb := byName["smart"], byName["cyclic-blocked"]
	if !(sm.Remaps < cb.Remaps && sm.Volume < cb.Volume && sm.CommTime < cb.CommTime) {
		t.Errorf("smart should dominate cyclic-blocked under LogP: %+v vs %+v", sm, cb)
	}
	predsLong := Predict(20, 1, true, nil)
	for _, p := range predsLong {
		if p.CommTime <= 0 {
			t.Errorf("nonpositive predicted time: %+v", p)
		}
	}
}

func TestAlgorithmStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range allAlgorithms() {
		s := a.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Errorf("bad name for %d: %q", int(a), s)
		}
		seen[s] = true
	}
	if Algorithm(99).String() != "unknown" {
		t.Error("fallback name broken")
	}
}

func TestQuickPublicSort(t *testing.T) {
	f := func(seed uint64) bool {
		rng := workload.NewRNG(seed)
		p := 1 << uint(rng.Intn(4))
		n := 1 << uint(3+rng.Intn(5))
		alg := allAlgorithms()[rng.Intn(5)]
		if alg == CyclicBlockedBitonic && n < p {
			alg = SmartBitonic
		}
		dist := workload.Dists()[rng.Intn(len(workload.Dists()))]
		keys := workload.Keys(dist, p*n, seed)
		want := sortedRef(keys)
		if _, err := Sort(keys, Config{Processors: p, Algorithm: alg}); err != nil {
			return false
		}
		for i := range want {
			if keys[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestSortPadded(t *testing.T) {
	for _, count := range []int{1, 5, 63, 100, 1000, 1024} {
		keys := workload.Keys(workload.FullRange, count, 9)
		want := sortedRef(keys)
		res, err := SortPadded(keys, Config{Processors: 8})
		if err != nil {
			t.Fatalf("count=%d: %v", count, err)
		}
		if len(keys) != count {
			t.Fatalf("count=%d: length changed to %d", count, len(keys))
		}
		for i := range want {
			if keys[i] != want[i] {
				t.Fatalf("count=%d: wrong key at %d", count, i)
			}
		}
		if res.Keys < count {
			t.Fatalf("count=%d: padded run sorted fewer keys (%d)", count, res.Keys)
		}
	}
	// Maximal keys in the input must survive padding.
	keys := []uint32{^uint32(0), 5, ^uint32(0)}
	if _, err := SortPadded(keys, Config{Processors: 2}); err != nil {
		t.Fatal(err)
	}
	if keys[0] != 5 || keys[1] != ^uint32(0) || keys[2] != ^uint32(0) {
		t.Fatalf("maximal keys lost: %v", keys)
	}
	if _, err := SortPadded[uint32](nil, Config{Processors: 2}); err == nil {
		t.Error("empty input should error")
	}
	if _, err := SortPadded(make([]uint32, 4), Config{Processors: 3}); err == nil {
		t.Error("bad P should error")
	}
}

func TestTraceThroughFacade(t *testing.T) {
	rec := new(TraceRecorder)
	keys := workload.Keys(workload.Uniform31, 4096, 2)
	if _, err := Sort(keys, Config{Processors: 8, Obs: rec}); err != nil {
		t.Fatal(err)
	}
	if len(rec.Spans()) == 0 {
		t.Fatal("facade trace recorded nothing")
	}
	if rec.WaitShare() < 0 || rec.WaitShare() > 1 {
		t.Fatalf("wait share %v out of range", rec.WaitShare())
	}
}

func TestRemapStrategies(t *testing.T) {
	keys := workload.Keys(workload.Uniform31, 16*1024, 4)
	var volumes []int
	for _, strat := range []RemapStrategy{HeadRemap, TailRemap, MiddleRemap1, MiddleRemap2} {
		work := append([]uint32(nil), keys...)
		res, err := Sort(work, Config{Processors: 16, Sim: SimOptions{Strategy: strat}})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		want := sortedRef(keys)
		for i := range want {
			if work[i] != want[i] {
				t.Fatalf("strategy %v did not sort", strat)
			}
		}
		volumes = append(volumes, res.VolumeSent)
	}
	// Lemma 5 as measured through the public API.
	if volumes[1] > volumes[0] {
		t.Errorf("tail volume %d exceeds head %d", volumes[1], volumes[0])
	}
	if volumes[2] < volumes[0] {
		t.Errorf("middle1 volume %d below head %d", volumes[2], volumes[0])
	}
}
