package parbitonic

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"parbitonic/element"
	"parbitonic/internal/obs"
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
