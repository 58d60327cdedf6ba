package tune

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"parbitonic/element"
	"parbitonic/internal/logp"
	"parbitonic/internal/spmd"
)

// exampleProfile loads the committed test profile that TUNING.md's
// worked example is written against.
func exampleProfile(t *testing.T) *Profile {
	t.Helper()
	p, err := Load(filepath.Join("testdata", "profile_example.json"))
	if err != nil {
		t.Fatalf("loading example profile: %v", err)
	}
	return p
}

func TestProfileRoundTrip(t *testing.T) {
	p := Fallback()
	p.CreatedAt = "2026-08-08T00:00:00Z"
	hostStamp(p)
	path := filepath.Join(t.TempDir(), "nested", "profile.json")
	if err := p.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Errorf("round trip mismatch:\nsaved  %+v\nloaded %+v", p, got)
	}
}

func TestProfileForwardCompat(t *testing.T) {
	// Unknown fields must be ignored: a profile written by a future
	// build that only added fields still loads.
	raw, err := os.ReadFile(filepath.Join("testdata", "profile_example.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc["future_field"] = map[string]any{"nested": true}
	doc["another_unknown"] = 42
	withUnknown, _ := json.Marshal(doc)
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := os.WriteFile(path, withUnknown, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Load(path)
	if err != nil {
		t.Fatalf("profile with unknown fields must load: %v", err)
	}
	if p.BarrierNS != 1000 {
		t.Errorf("BarrierNS = %v after unknown-field load, want 1000", p.BarrierNS)
	}

	// A different format version must be rejected, not misread.
	doc["version"] = ProfileVersion + 1
	versioned, _ := json.Marshal(doc)
	if err := os.WriteFile(path, versioned, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrProfileVersion) {
		t.Errorf("profile with version mismatch: Load error %v, want ErrProfileVersion", err)
	}

	// So must a foreign schema.
	doc["version"] = ProfileVersion
	doc["schema"] = "something-else"
	foreign, _ := json.Marshal(doc)
	if err := os.WriteFile(path, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("profile with foreign schema must be rejected")
	}
}

func TestProfileValidate(t *testing.T) {
	p := Fallback()
	delete(p.Kernels, "u32")
	if err := p.Validate(); err == nil {
		t.Error("profile without u32 kernels must not validate")
	}
	p = Fallback()
	k := p.Kernels["u32"]
	k.MergeNS = -1
	p.Kernels["u32"] = k
	if err := p.Validate(); err == nil {
		t.Error("negative kernel cost must not validate")
	}
}

func TestKernelsForScalesMissingTypes(t *testing.T) {
	p := exampleProfile(t)
	// u64 is present verbatim.
	if got := p.KernelsFor(element.TU64); got.MergeNS != 4.0 {
		t.Errorf("u64 MergeNS = %v, want the profile's 4.0", got.MergeNS)
	}
	// kv64 is absent: width-scaled (16 bytes = 4 words) from u32.
	got := p.KernelsFor(element.TKV64)
	if got.MergeNS != 8.0 || got.CopyNS != 2.0 || got.RadixRoundNS != 12.0 {
		t.Errorf("kv64 scaled kernels = %+v, want 4x the u32 costs", got)
	}
}

func TestLoadOrFallback(t *testing.T) {
	// Missing file falls back.
	p, calibrated, err := LoadOrFallback(filepath.Join(t.TempDir(), "missing.json"))
	if err != nil || calibrated || p.Source != "fallback" {
		t.Errorf("missing profile: got (%v, %v, %v), want fallback", p.Source, calibrated, err)
	}
	// A corrupt file the operator pointed at must error, not be masked.
	path := filepath.Join(t.TempDir(), "corrupt.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadOrFallback(path); err == nil {
		t.Error("corrupt profile must surface an error")
	}
	// A profile from another format version (a cached file older than
	// this build) plans from the fallback instead of failing.
	stale := Fallback()
	stale.Source = "calibrated"
	stale.Version = ProfileVersion - 1
	raw, err := json.Marshal(stale)
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "stale.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	p, calibrated, err = LoadOrFallback(path)
	if err != nil || calibrated || p.Source != "fallback" {
		t.Errorf("stale profile: got (%v, %v, %v), want fallback", p.Source, calibrated, err)
	}
}

// TestPlannerGoldenSmall hand-computes the worked example of TUNING.md
// from the committed profile: sorting 4096 uint32 keys on up to 4
// processors. Every plan cost below is derived by hand from the kernel
// costs, the §3.4 metrics and the profile's round-number costs (5 µs
// per parallel run, 1 µs per barrier, spmd.RemapBarriers = 2 barriers
// per remap); the planner must reproduce them exactly.
func TestPlannerGoldenSmall(t *testing.T) {
	pl := &Planner{Profile: exampleProfile(t), MaxP: 4, Backend: BackendNative}
	ranked, err := pl.Rank(4096, element.TU32)
	if err != nil {
		t.Fatal(err)
	}
	if spmd.RemapBarriers != 2 {
		t.Fatalf("spmd.RemapBarriers = %d; the hand computation below assumes 2", spmd.RemapBarriers)
	}

	// P=1: compute only, 3 radix passes x 1 ns over 4096 keys = 12.288
	// µs, and no run or barrier cost.
	seq := findPlan(ranked, AlgSmart, 1, "head")
	if seq == nil {
		t.Fatal("no P=1 plan in ranking")
	}
	wantSeq := 3 * 0.001 * 4096 // µs
	if !close(seq.PredictedUS, wantSeq) || seq.CommUS != 0 {
		t.Errorf("P=1 predicted = %v µs (comm %v), want %v (comm 0)", seq.PredictedUS, seq.CommUS, wantSeq)
	}

	// P=2 smart: n=2048, lgN=12, lgP=1. The schedule has R=2 remaps,
	// each changing 1 bit: V = 2*(2048-1024) = 2048, M = 2*(2^1-1) = 2.
	// Those metrics must agree with logp.Smart.
	sm := logp.Smart(12, 1)
	if sm.R != 2 || sm.V != 2048 || sm.M != 2 {
		t.Fatalf("logp.Smart(12,1) = %+v; the hand computation below assumes R=2,V=2048,M=2", sm)
	}
	p2 := findPlan(ranked, AlgSmart, 2, "head")
	if p2 == nil {
		t.Fatal("no P=2 smart plan in ranking")
	}
	// compute = 3 passes·1ns·2048 + 2 merges·2ns·2048   = 6.144+8.192 µs
	// comm    = 5µs run + 2 remaps·2 barriers·1µs       = 9 µs
	wantCompute := 3*0.001*2048 + 2*0.002*2048
	wantComm := 5 + 2.0*2*1
	if !close(p2.ComputeUS, wantCompute) || !close(p2.CommUS, wantComm) {
		t.Errorf("P=2 smart = compute %v comm %v, want %v / %v",
			p2.ComputeUS, p2.CommUS, wantCompute, wantComm)
	}
	if p2.R != 2 || p2.V != 2048 || p2.M != 2 {
		t.Errorf("P=2 smart metrics = R=%d V=%d M=%d, want 2/2048/2", p2.R, p2.V, p2.M)
	}

	// P=2 blocked-merge: R=1 step, V=2048, M=1; the compare-split works
	// over 2n keys. compute = 6.144 + 1·2ns·2·2048 + (0.5+0.5)ns·2048 =
	// 16.384, comm = 5 + 1·2·1 = 7.
	bm := findPlan(ranked, AlgBlockedMerge, 2, "head")
	if bm == nil {
		t.Fatal("no P=2 blocked-merge plan in ranking")
	}
	if !close(bm.PredictedUS, 16.384+7) {
		t.Errorf("P=2 blocked-merge predicted = %v, want 23.384", bm.PredictedUS)
	}

	// P=4 radix sort: n=1024, 3 digit rounds over V = 3·1024 keys at the
	// measured 3 ns round: compute = 9.216, comm = 5 + 3·2·1 = 11.
	rx := findPlan(ranked, AlgRadixSort, 4, "head")
	if rx == nil {
		t.Fatal("no P=4 radix plan in ranking")
	}
	if !close(rx.ComputeUS, 9.216) || !close(rx.CommUS, 11) {
		t.Errorf("P=4 radix = compute %v comm %v, want 9.216 / 11", rx.ComputeUS, rx.CommUS)
	}

	// The run cost keeps 4096 keys sequential. The runner-up is P=4
	// sample sort: n=1024, R=1, V=1024, M=3. compute = 3·1ns·1024 +
	// lgP=2 merges·2ns·1024 + (0.5+0.5)ns·1024 = 3.072 + 4.096 + 1.024
	// = 8.192, comm = 5 + 1·2·1 = 7, 15.192 in all.
	if ranked[0] != *seq {
		t.Fatalf("best plan = %v, want sequential %v", ranked[0], *seq)
	}
	if second := ranked[1]; second.Algorithm != AlgSampleSort || second.Processors != 4 || !close(second.PredictedUS, 8.192+7) {
		t.Errorf("second plan = %v, want sample-sort P=4 at 15.192 µs", second)
	}

	// Determinism: ranking twice gives the same order.
	again, _ := pl.Rank(4096, element.TU32)
	for i := range ranked {
		if ranked[i] != again[i] {
			t.Fatalf("rank not deterministic at %d: %v vs %v", i, ranked[i], again[i])
		}
	}
}

// TestPlannerNativeCommIsSyncTime: a native plan's communication is
// synchronization and nothing else — one run's dispatch and join plus
// the barriers its remaps cross, RunNS + R·spmd.RemapBarriers·
// BarrierNS, and zero for the sequential plan. Its volume and messages
// move in the compute terms, so plans with equal R price the same
// communication however V and M differ: sample sort at P=2 and P=4
// (R=1; M is 1 or 3), radix sort at P=2 and P=4 (R=3), and blocked
// merge against radix sort at P=4 (R=3; M is 3 or 9). The terms hold
// for every element width.
func TestPlannerNativeCommIsSyncTime(t *testing.T) {
	prof := exampleProfile(t)
	pl := &Planner{Profile: prof, MaxP: 4, Backend: BackendNative}
	const total = 1 << 16
	for _, typ := range []element.Type{element.TU32, element.TKV64} {
		for _, plan := range mustRank(t, pl, total, typ) {
			want := 0.0
			if plan.Processors > 1 {
				want = (prof.RunNS + float64(plan.R*spmd.RemapBarriers)*prof.BarrierNS) / 1e3
			}
			if !close(plan.CommUS, want) {
				t.Errorf("%s %v: CommUS = %v, want RunNS + R·%d·BarrierNS = %v", typ, plan, plan.CommUS, spmd.RemapBarriers, want)
			}
		}
	}
	u32 := mustRank(t, pl, total, element.TU32)
	for _, pair := range []struct {
		name string
		a, b *Plan
	}{
		{"sample P=2 vs P=4", findPlan(u32, AlgSampleSort, 2, "head"), findPlan(u32, AlgSampleSort, 4, "head")},
		{"radix P=2 vs P=4", findPlan(u32, AlgRadixSort, 2, "head"), findPlan(u32, AlgRadixSort, 4, "head")},
		{"blocked-merge vs radix at P=4", findPlan(u32, AlgBlockedMerge, 4, "head"), findPlan(u32, AlgRadixSort, 4, "head")},
	} {
		a, b := pair.a, pair.b
		if a == nil || b == nil {
			t.Fatalf("%s: missing plan", pair.name)
		}
		if a.R != b.R || (a.V == b.V && a.M == b.M) {
			t.Fatalf("%s: want equal R and different V or M, got %+v and %+v", pair.name, *a, *b)
		}
		if a.CommUS != b.CommUS || !(a.CommUS > 0) {
			t.Errorf("%s: CommUS %v vs %v, want equal and positive at R=%d", pair.name, a.CommUS, b.CommUS, a.R)
		}
	}
}

// TestPlannerSmallInputsStaySequential: a parallel native plan pays a
// run's dispatch and join, so on the example and fallback profiles
// small uint32 inputs must plan on one processor even when eight are
// allowed.
func TestPlannerSmallInputsStaySequential(t *testing.T) {
	for _, c := range []struct {
		name  string
		prof  *Profile
		sizes []int
	}{
		{"example", exampleProfile(t), []int{256, 1024, 2048}},
		{"fallback", Fallback(), []int{256, 1024, 4096}},
	} {
		pl := &Planner{Profile: c.prof, MaxP: 8, Backend: BackendNative}
		for _, total := range c.sizes {
			plan, err := pl.Plan(total, element.TU32)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Processors != 1 {
				t.Errorf("%s profile, %d keys: plan %v, want P=1", c.name, total, plan)
			}
		}
	}
}

// TestPlannerPrefersParallelAtScale: with the same profile, a large
// input amortizes the fixed remap cost and the planner must leave P=1.
func TestPlannerPrefersParallelAtScale(t *testing.T) {
	pl := &Planner{Profile: exampleProfile(t), MaxP: 8, Backend: BackendNative}
	plan, err := pl.Plan(1<<22, element.TU32)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Processors < 2 {
		t.Errorf("plan for 4M keys = %v, want a parallel shape", plan)
	}
	seq := findPlan(mustRank(t, pl, 1<<22, element.TU32), AlgSmart, 1, "head")
	if seq == nil || seq.PredictedUS <= plan.PredictedUS {
		t.Errorf("sequential (%v) should predict slower than chosen %v", seq, plan)
	}
}

// TestPlannerSimulatedMatchesModel: simulated-backend scores must be
// expressed in the simulator's own units — the comm term must equal
// logp.TotalLong under Meiko parameters exactly.
func TestPlannerSimulatedMatchesModel(t *testing.T) {
	pl := &Planner{Profile: exampleProfile(t), MaxP: 4, Backend: BackendSimulated}
	ranked := mustRank(t, pl, 4096, element.TU32)
	p2 := findPlan(ranked, AlgSmart, 2, "head")
	if p2 == nil {
		t.Fatal("no P=2 simulated smart plan")
	}
	params := logp.MeikoCS2(2)
	sm := logp.Smart(12, 1)
	want := params.TotalLong(sm.R, sm.V, sm.M)
	if !close(p2.CommUS, want) {
		t.Errorf("simulated comm = %v, want logp.TotalLong = %v", p2.CommUS, want)
	}
	// The profile's native costs must not leak into simulated scores:
	// wiping them changes nothing.
	blank := &Planner{Profile: Fallback(), MaxP: 4, Backend: BackendSimulated}
	b2 := findPlan(mustRank(t, blank, 4096, element.TU32), AlgSmart, 2, "head")
	if b2 == nil || !close(b2.PredictedUS, p2.PredictedUS) {
		t.Errorf("simulated score depends on the machine profile: %v vs %v", b2, p2)
	}
}

// TestPlannerWidthScaling: a wider element must never score cheaper
// than the same plan shape for a narrower one.
func TestPlannerWidthScaling(t *testing.T) {
	pl := &Planner{Profile: exampleProfile(t), MaxP: 4, Backend: BackendNative}
	for _, n := range []int{1 << 10, 1 << 16} {
		u32 := findPlan(mustRank(t, pl, n, element.TU32), AlgSmart, 2, "head")
		u64 := findPlan(mustRank(t, pl, n, element.TU64), AlgSmart, 2, "head")
		if u32 == nil || u64 == nil {
			t.Fatalf("missing P=2 smart plan at n=%d", n)
		}
		if u64.PredictedUS <= u32.PredictedUS {
			t.Errorf("n=%d: u64 plan (%v µs) must cost more than u32 (%v µs)",
				n, u64.PredictedUS, u32.PredictedUS)
		}
	}
}

// TestPlannerStrategies: the Lemma 5 variants appear only when asked,
// only on the simulated backend, and never beat Head under the default
// model (they imply step simulation).
func TestPlannerStrategies(t *testing.T) {
	base := &Planner{Profile: exampleProfile(t), MaxP: 4, Backend: BackendSimulated}
	if p := findPlan(mustRank(t, base, 1<<14, element.TU32), AlgSmart, 4, "tail"); p != nil {
		t.Error("tail strategy enumerated without AllStrategies")
	}
	all := &Planner{Profile: exampleProfile(t), MaxP: 4, Backend: BackendSimulated, AllStrategies: true}
	ranked := mustRank(t, all, 1<<14, element.TU32)
	tail := findPlan(ranked, AlgSmart, 4, "tail")
	head := findPlan(ranked, AlgSmart, 4, "head")
	if tail == nil || head == nil {
		t.Fatal("missing strategy plans under AllStrategies")
	}
	if tail.PredictedUS <= head.PredictedUS {
		t.Errorf("tail (step simulation, %v µs) should score above head (%v µs)",
			tail.PredictedUS, head.PredictedUS)
	}
	native := &Planner{Profile: exampleProfile(t), MaxP: 4, Backend: BackendNative, AllStrategies: true}
	if p := findPlan(mustRank(t, native, 1<<14, element.TU32), AlgSmart, 4, "tail"); p != nil {
		t.Error("native backend must not enumerate step-simulation strategies")
	}
}

func TestPlannerRejectsBadInput(t *testing.T) {
	pl := NewPlanner(exampleProfile(t))
	if _, err := pl.Plan(0, element.TU32); err == nil {
		t.Error("planning 0 keys must error")
	}
	bad := &Planner{Profile: exampleProfile(t), Backend: Backend("quantum")}
	if _, err := bad.Plan(1024, element.TU32); err == nil {
		t.Error("unknown backend must error")
	}
}

// TestCalibrateDeterminismBounds runs the quick calibrator twice and
// checks the runs agree within generous bounds: microbenchmarks on a
// shared CI host jitter, but a kernel cost from one run may not be a
// multiple of the other's.
func TestCalibrateDeterminismBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration microbenchmarks in -short mode")
	}
	ctx := context.Background()
	a, err := Calibrate(ctx, Options{Quick: true})
	if err != nil {
		t.Fatalf("first calibration: %v", err)
	}
	b, err := Calibrate(ctx, Options{Quick: true})
	if err != nil {
		t.Fatalf("second calibration: %v", err)
	}
	const tol = 8.0 // generous: CI neighbours can steal most of a core
	for _, typ := range []string{"u32", "u64", "f32", "f64", "kv64"} {
		ka, kb := a.Kernels[typ], b.Kernels[typ]
		for _, pair := range [][2]float64{
			{ka.RadixPassNS, kb.RadixPassNS},
			{ka.MergeNS, kb.MergeNS},
			{ka.CompareNS, kb.CompareNS},
			{ka.CopyNS, kb.CopyNS},
			{ka.RadixRoundNS, kb.RadixRoundNS},
		} {
			lo, hi := pair[0], pair[1]
			if lo > hi {
				lo, hi = hi, lo
			}
			if !(lo > 0) || hi/lo > tol {
				t.Errorf("%s kernels disagree beyond %gx: %v vs %v", typ, tol, pair[0], pair[1])
			}
		}
	}
	if a.Source != "calibrated" || !a.Quick {
		t.Errorf("calibrated profile mislabeled: source=%q quick=%v", a.Source, a.Quick)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("calibrated profile invalid: %v", err)
	}
	if runtime.GOMAXPROCS(0) >= 2 && (!(a.BarrierNS > 0) || !(a.RunNS > 0) || a.SyncProcs != syncProcs()) {
		t.Errorf("multi-core calibration measured BarrierNS = %v, RunNS = %v at P=%d; want both > 0 at P=%d",
			a.BarrierNS, a.RunNS, a.SyncProcs, syncProcs())
	}
	fb := Fallback()
	if runtime.GOMAXPROCS(0) < 2 && (a.BarrierNS != fb.BarrierNS || a.RunNS != fb.RunNS || a.SyncProcs != 0) {
		t.Errorf("single-core calibration BarrierNS = %v, RunNS = %v, SyncProcs = %d; want the fallback %v, %v, 0",
			a.BarrierNS, a.RunNS, a.SyncProcs, fb.BarrierNS, fb.RunNS)
	}
}

func mustRank(t *testing.T, pl *Planner, total int, typ element.Type) []Plan {
	t.Helper()
	r, err := pl.Rank(total, typ)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func findPlan(plans []Plan, alg string, p int, strat string) *Plan {
	for i := range plans {
		if plans[i].Algorithm == alg && plans[i].Processors == p && plans[i].Strategy == strat {
			return &plans[i]
		}
	}
	return nil
}

func close(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}
