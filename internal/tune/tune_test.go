package tune

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"parbitonic/element"
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
		for _, pair := range []struct {
			field string
			a, b  float64
		}{
			{"radix_pass_ns", ka.RadixPassNS, kb.RadixPassNS},
			{"merge_ns", ka.MergeNS, kb.MergeNS},
			{"copy_ns", ka.CopyNS, kb.CopyNS},
			{"radix_round_ns", ka.RadixRoundNS, kb.RadixRoundNS},
		} {
			lo, hi := min(pair.a, pair.b), max(pair.a, pair.b)
			if !(lo > 0) || hi/lo > tol {
				t.Errorf("%s.%s disagrees beyond %gx: %v vs %v", typ, pair.field, tol, pair.a, pair.b)
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
