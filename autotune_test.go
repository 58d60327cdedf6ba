package parbitonic

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"parbitonic/element"
	"parbitonic/internal/logp"
	"parbitonic/internal/obs"
	"parbitonic/internal/spmd"
	"parbitonic/internal/tune"
	"parbitonic/internal/workload"
)

// exampleProfilePath is the committed machine profile the planner
// golden tests (and TUNING.md's worked example) are written against.
var exampleProfilePath = filepath.Join("internal", "tune", "testdata", "profile_example.json")

func TestAutoSortSorts(t *testing.T) {
	for _, backend := range []Backend{Simulated, Native} {
		keys := workload.Keys(workload.FullRange, 1<<12, 7)
		res, err := Sort(keys, Config{Auto: true, Backend: backend, ProfilePath: exampleProfilePath, Verify: true})
		if err != nil {
			t.Fatalf("%v: auto sort: %v", backend, err)
		}
		if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
			t.Fatalf("%v: auto sort left keys unsorted", backend)
		}
		if res.Keys != 1<<12 {
			t.Errorf("%v: res.Keys = %d", backend, res.Keys)
		}
	}
}

func TestAutoSortPadded(t *testing.T) {
	keys := workload.Keys(workload.FullRange, 3000, 9) // not a power of two
	_, err := SortPadded(keys, Config{Auto: true, Backend: Native, ProfilePath: exampleProfilePath, Verify: true})
	if err != nil {
		t.Fatalf("auto padded sort: %v", err)
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("auto padded sort left keys unsorted")
	}
}

// TestAutoBitIdentical: under the simulated backend, an Auto run must
// be bit-identical (same sorted output, same model time) to a manual
// run of the exact configuration the planner chose — Auto selects the
// plan, it never alters how the plan executes.
func TestAutoBitIdentical(t *testing.T) {
	const n = 1 << 12
	cfg := Config{Auto: true, Backend: Simulated, ProfilePath: exampleProfilePath}
	plan, err := PlanFor[uint32](n, cfg)
	if err != nil {
		t.Fatal(err)
	}

	autoKeys := workload.Keys(workload.FullRange, n, 11)
	manualKeys := workload.Keys(workload.FullRange, n, 11)

	autoRes, err := Sort(autoKeys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	manualRes, err := Sort(manualKeys, plan.Apply(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if autoRes.Time != manualRes.Time {
		t.Errorf("auto model time %v != manual %v", autoRes.Time, manualRes.Time)
	}
	if autoRes.Algorithm != plan.Algorithm || autoRes.Remaps != manualRes.Remaps ||
		autoRes.VolumeSent != manualRes.VolumeSent {
		t.Errorf("auto run diverged from its plan: %+v vs %+v", autoRes, manualRes)
	}
	for i := range autoKeys {
		if autoKeys[i] != manualKeys[i] {
			t.Fatalf("output differs at %d", i)
		}
	}
}

func TestPlanForConstraints(t *testing.T) {
	// Processors caps the plan's P.
	plan, err := PlanFor[uint32](1<<16, Config{Auto: true, Backend: Native, Processors: 2, ProfilePath: exampleProfilePath})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Processors > 2 {
		t.Errorf("plan P = %d exceeds the Processors cap 2", plan.Processors)
	}
	if plan.Backend != Native {
		t.Errorf("plan backend = %v, want the configured Native", plan.Backend)
	}
	if plan.ProfileSource != "calibrated" {
		t.Errorf("plan profile source = %q, want calibrated (committed test profile)", plan.ProfileSource)
	}
	if plan.PredictedUS <= 0 || plan.PredictedUS != plan.ComputeUS+plan.CommUS {
		t.Errorf("plan cost inconsistent: %+v", plan)
	}

	// A missing profile falls back, and says so.
	fb, err := PlanFor[uint32](1<<12, Config{Auto: true, Backend: Native, ProfilePath: filepath.Join(t.TempDir(), "none.json")})
	if err != nil {
		t.Fatal(err)
	}
	if fb.ProfileSource != "fallback" {
		t.Errorf("profile source = %q, want fallback", fb.ProfileSource)
	}
}

// TestSimulatedPlanIgnoresProfile: simulated scores come from the
// simulator's own cost model, so a corrupt profile file can neither
// fail nor change a simulated plan. A native plan still refuses it.
func TestSimulatedPlanIgnoresProfile(t *testing.T) {
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1 << 10, 1 << 16} {
		got, err := PlanFor[element.KV64](n, Config{Processors: 4, ProfilePath: corrupt})
		if err != nil {
			t.Fatalf("n=%d: simulated plan read the corrupt profile: %v", n, err)
		}
		want, err := PlanFor[element.KV64](n, Config{Processors: 4, ProfilePath: filepath.Join(dir, "none.json")})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("n=%d: plan with a corrupt profile %+v != plan with none %+v", n, got, want)
		}
	}
	if _, err := PlanFor[uint32](1<<10, Config{Backend: Native, ProfilePath: corrupt}); err == nil {
		t.Error("native plan accepted a corrupt profile")
	}
}

// TestSimulatedP1PlanExact: a simulated P=1 plan is one local radix
// sort and no communication, so its score must be exactly the model
// time the simulated Sort reports, on every element type.
func TestSimulatedP1PlanExact(t *testing.T) {
	for _, n := range []int{1 << 10, 1 << 14} {
		checkP1PlanExact[uint32](t, n)
		checkP1PlanExact[uint64](t, n)
		checkP1PlanExact[float32](t, n)
		checkP1PlanExact[float64](t, n)
		checkP1PlanExact[element.KV64](t, n)
	}
}

func checkP1PlanExact[E element.Elem](t *testing.T, n int) {
	t.Helper()
	cfg := Config{Auto: true, Processors: 1}
	plan, err := PlanFor[E](n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sort(workload.Elems[E](workload.Uniform31, n, 1), plan.Apply(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Time-plan.PredictedUS) > 1e-9*res.Time {
		t.Errorf("%v n=%d: P=1 plan predicts %.3fµs, simulated model time %.3fµs",
			element.TypeOf[E](), n, plan.PredictedUS, res.Time)
	}
}

func TestNewEngineRejectsAuto(t *testing.T) {
	if _, err := NewEngine(Config{Auto: true, Processors: 4}); err == nil {
		t.Fatal("NewEngine must reject Config.Auto (engines are fixed-shape)")
	}
}

// TestAutoObservability: an Auto run emits a plan event into Obs and
// attaches the plan plus a plan-time drift quantity to the Observe
// report.
func TestAutoObservability(t *testing.T) {
	metrics := obs.NewMetrics()
	var rep *SortReport
	keys := workload.Keys(workload.FullRange, 1<<12, 5)
	_, err := Sort(keys, Config{
		Auto:        true,
		Backend:     Native,
		ProfilePath: exampleProfilePath,
		Obs:         metrics,
		Observe:     func(r SortReport) { rep = &r },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("Observe not called")
	}
	if rep.Plan == nil {
		t.Fatal("report carries no plan for an Auto run")
	}
	var planTime *DriftQuantity
	for i := range rep.Quantities {
		if rep.Quantities[i].Name == "plan-time" {
			planTime = &rep.Quantities[i]
		}
	}
	if planTime == nil {
		t.Fatal("report has no plan-time drift quantity")
	}
	if planTime.Predicted != rep.Plan.PredictedUS {
		t.Errorf("plan-time predicted %v != plan's %v", planTime.Predicted, rep.Plan.PredictedUS)
	}
	if planTime.Measured != rep.Result.Time {
		t.Errorf("plan-time measured %v != run time %v", planTime.Measured, rep.Result.Time)
	}
	if got := metrics.EventCount(obs.EventPlan); got != 1 {
		t.Errorf("plan events = %v, want 1", got)
	}
}

// TestAutoKVPayload: the planner path must preserve payloads like any
// other sort.
func TestAutoKVPayload(t *testing.T) {
	recs := workload.Elems[element.KV64](workload.FullRange, 1<<10, 3)
	want := make(map[uint64]uint64, len(recs))
	for _, r := range recs {
		want[r.K] = r.V
	}
	if _, err := Sort(recs, Config{Auto: true, Backend: Native, ProfilePath: exampleProfilePath, Verify: true}); err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if i > 0 && recs[i-1].K > r.K {
			t.Fatalf("keys out of order at %d", i)
		}
		if want[r.K] != r.V {
			t.Fatalf("payload for key %d changed", r.K)
		}
	}
}

// TestPlannerGoldenSmall hand-computes the worked example of TUNING.md
// from the committed profile: sorting 4096 uint32 keys on up to 4
// processors. Every plan cost below is derived by hand from the kernel
// costs, the §3.4 metrics and the profile's round-number costs (5 µs
// per parallel run, 1 µs per barrier, spmd.RemapBarriers = 2 barriers
// per remap); the planner must reproduce them exactly.
func TestPlannerGoldenSmall(t *testing.T) {
	ranked := rankPlans(exampleProfile(t), Native, 4096, 4, element.TU32)
	if spmd.RemapBarriers != 2 {
		t.Fatalf("spmd.RemapBarriers = %d; the hand computation below assumes 2", spmd.RemapBarriers)
	}

	// P=1: compute only, 3 radix passes x 1 ns over 4096 keys = 12.288
	// µs, and no run or barrier cost.
	seq := findPlan(ranked, SmartBitonic, 1)
	if seq == nil {
		t.Fatal("no P=1 plan in ranking")
	}
	wantSeq := 3 * 0.001 * 4096 // µs
	if !nearlyEqual(seq.PredictedUS, wantSeq) || seq.CommUS != 0 {
		t.Errorf("P=1 predicted = %v µs (comm %v), want %v (comm 0)", seq.PredictedUS, seq.CommUS, wantSeq)
	}

	// P=2 smart: n=2048, lgN=12, lgP=1. The schedule has R=2 remaps,
	// each changing 1 bit: V = 2*(2048-1024) = 2048, M = 2*(2^1-1) = 2.
	// Those metrics must agree with logp.Smart.
	sm := logp.Smart(12, 1)
	if sm.R != 2 || sm.V != 2048 || sm.M != 2 {
		t.Fatalf("logp.Smart(12,1) = %+v; the hand computation below assumes R=2,V=2048,M=2", sm)
	}
	p2 := findPlan(ranked, SmartBitonic, 2)
	if p2 == nil {
		t.Fatal("no P=2 smart plan in ranking")
	}
	// compute = 3 passes·1ns·2048 + 2 merges·2ns·2048   = 6.144+8.192 µs
	// comm    = 5µs run + 2 remaps·2 barriers·1µs       = 9 µs
	wantCompute := 3*0.001*2048 + 2*0.002*2048
	wantComm := 5 + 2.0*2*1
	if !nearlyEqual(p2.ComputeUS, wantCompute) || !nearlyEqual(p2.CommUS, wantComm) {
		t.Errorf("P=2 smart = compute %v comm %v, want %v / %v",
			p2.ComputeUS, p2.CommUS, wantCompute, wantComm)
	}
	if p2.R != 2 || p2.V != 2048 || p2.M != 2 {
		t.Errorf("P=2 smart metrics = R=%d V=%d M=%d, want 2/2048/2", p2.R, p2.V, p2.M)
	}

	// P=2 blocked-merge: R=1 step, V=2048, M=1; the compare-split works
	// over 2n keys. compute = 6.144 + 1·2ns·2·2048 + (0.5+0.5)ns·2048 =
	// 16.384, comm = 5 + 1·2·1 = 7.
	bm := findPlan(ranked, BlockedMergeBitonic, 2)
	if bm == nil {
		t.Fatal("no P=2 blocked-merge plan in ranking")
	}
	if !nearlyEqual(bm.PredictedUS, 16.384+7) {
		t.Errorf("P=2 blocked-merge predicted = %v, want 23.384", bm.PredictedUS)
	}

	// P=4 radix sort: n=1024, 3 digit rounds over V = 3·1024 keys at the
	// measured 3 ns round: compute = 9.216, comm = 5 + 3·2·1 = 11.
	rx := findPlan(ranked, RadixSort, 4)
	if rx == nil {
		t.Fatal("no P=4 radix plan in ranking")
	}
	if !nearlyEqual(rx.ComputeUS, 9.216) || !nearlyEqual(rx.CommUS, 11) {
		t.Errorf("P=4 radix = compute %v comm %v, want 9.216 / 11", rx.ComputeUS, rx.CommUS)
	}

	// The run cost keeps 4096 keys sequential. The runner-up is P=4
	// sample sort: n=1024, R=1, V=1024, M=3. compute = 3·1ns·1024 +
	// lgP=2 merges·2ns·1024 + (0.5+0.5)ns·1024 = 3.072 + 4.096 + 1.024
	// = 8.192, comm = 5 + 1·2·1 = 7, 15.192 in all.
	if ranked[0] != *seq {
		t.Fatalf("best plan = %v, want sequential %v", ranked[0], *seq)
	}
	if second := ranked[1]; second.Algorithm != SampleSort || second.Processors != 4 || !nearlyEqual(second.PredictedUS, 8.192+7) {
		t.Errorf("second plan = %v, want sample-sort P=4 at 15.192 µs", second)
	}

	// Determinism: ranking twice gives the same order.
	again := rankPlans(exampleProfile(t), Native, 4096, 4, element.TU32)
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
	const total = 1 << 16
	for _, typ := range []element.Type{element.TU32, element.TKV64} {
		for _, plan := range rankPlans(prof, Native, total, 4, typ) {
			want := 0.0
			if plan.Processors > 1 {
				want = (prof.RunNS + float64(plan.R*spmd.RemapBarriers)*prof.BarrierNS) / 1e3
			}
			if !nearlyEqual(plan.CommUS, want) {
				t.Errorf("%s %v: CommUS = %v, want RunNS + R·%d·BarrierNS = %v", typ, plan, plan.CommUS, spmd.RemapBarriers, want)
			}
		}
	}
	u32 := rankPlans(prof, Native, total, 4, element.TU32)
	for _, pair := range []struct {
		name string
		a, b *Plan
	}{
		{"sample P=2 vs P=4", findPlan(u32, SampleSort, 2), findPlan(u32, SampleSort, 4)},
		{"radix P=2 vs P=4", findPlan(u32, RadixSort, 2), findPlan(u32, RadixSort, 4)},
		{"blocked-merge vs radix at P=4", findPlan(u32, BlockedMergeBitonic, 4), findPlan(u32, RadixSort, 4)},
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
		prof  *tune.Profile
		sizes []int
	}{
		{"example", exampleProfile(t), []int{256, 1024, 2048}},
		{"fallback", tune.Fallback(), []int{256, 1024, 4096}},
	} {
		for _, total := range c.sizes {
			if plan := rankPlans(c.prof, Native, total, 8, element.TU32)[0]; plan.Processors != 1 {
				t.Errorf("%s profile, %d keys: plan %v, want P=1", c.name, total, plan)
			}
		}
	}
}

// TestPlannerPrefersParallelAtScale: with the same profile, a large
// input amortizes the fixed remap cost and the planner must leave P=1.
func TestPlannerPrefersParallelAtScale(t *testing.T) {
	ranked := rankPlans(exampleProfile(t), Native, 1<<22, 8, element.TU32)
	plan := ranked[0]
	if plan.Processors < 2 {
		t.Errorf("plan for 4M keys = %v, want a parallel shape", plan)
	}
	seq := findPlan(ranked, SmartBitonic, 1)
	if seq == nil || seq.PredictedUS <= plan.PredictedUS {
		t.Errorf("sequential (%v) should predict slower than chosen %v", seq, plan)
	}
}

// TestPlannerSimulatedMatchesModel: simulated-backend scores must be
// expressed in the simulator's own units — the comm term must equal
// logp.TotalLong under Meiko parameters exactly.
func TestPlannerSimulatedMatchesModel(t *testing.T) {
	ranked := rankPlans(exampleProfile(t), Simulated, 4096, 4, element.TU32)
	p2 := findPlan(ranked, SmartBitonic, 2)
	if p2 == nil {
		t.Fatal("no P=2 simulated smart plan")
	}
	params := logp.MeikoCS2(2)
	sm := logp.Smart(12, 1)
	want := params.TotalLong(sm.R, sm.V, sm.M)
	if !nearlyEqual(p2.CommUS, want) {
		t.Errorf("simulated comm = %v, want logp.TotalLong = %v", p2.CommUS, want)
	}
	// The profile's native costs must not leak into simulated scores:
	// wiping them changes nothing.
	b2 := findPlan(rankPlans(tune.Fallback(), Simulated, 4096, 4, element.TU32), SmartBitonic, 2)
	if b2 == nil || !nearlyEqual(b2.PredictedUS, p2.PredictedUS) {
		t.Errorf("simulated score depends on the machine profile: %v vs %v", b2, p2)
	}
}

// TestPlannerWidthScaling: a wider element must never score cheaper
// than the same plan shape for a narrower one.
func TestPlannerWidthScaling(t *testing.T) {
	prof := exampleProfile(t)
	for _, n := range []int{1 << 10, 1 << 16} {
		u32 := findPlan(rankPlans(prof, Native, n, 4, element.TU32), SmartBitonic, 2)
		u64 := findPlan(rankPlans(prof, Native, n, 4, element.TU64), SmartBitonic, 2)
		if u32 == nil || u64 == nil {
			t.Fatalf("missing P=2 smart plan at n=%d", n)
		}
		if u64.PredictedUS <= u32.PredictedUS {
			t.Errorf("n=%d: u64 plan (%v µs) must cost more than u32 (%v µs)",
				n, u64.PredictedUS, u32.PredictedUS)
		}
	}
}

// TestPlannerRejectsBadInput: there is no plan for zero keys, and an
// Auto sort on an unknown backend fails when it builds the planned
// engine.
func TestPlannerRejectsBadInput(t *testing.T) {
	if _, err := PlanFor[uint32](0, Config{Backend: Native, ProfilePath: exampleProfilePath}); err == nil {
		t.Error("planning 0 keys must error")
	}
	keys := workload.Keys(workload.FullRange, 1024, 1)
	if _, err := Sort(keys, Config{Auto: true, Backend: Backend(7)}); err == nil {
		t.Error("unknown backend must error")
	}
}

// exampleProfile loads the committed test profile that TUNING.md's
// worked example is written against.
func exampleProfile(t *testing.T) *tune.Profile {
	t.Helper()
	p, err := tune.Load(exampleProfilePath)
	if err != nil {
		t.Fatalf("loading example profile: %v", err)
	}
	return p
}

func findPlan(plans []Plan, alg Algorithm, p int) *Plan {
	for i := range plans {
		if plans[i].Algorithm == alg && plans[i].Processors == p {
			return &plans[i]
		}
	}
	return nil
}

func nearlyEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}
