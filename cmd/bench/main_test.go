package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// snap builds a snapshot around the given entries, the minimal shape
// the gates operate on.
func snap(entries ...Entry) *Snapshot {
	return &Snapshot{Schema: BenchSchema, Version: BenchVersion, CPUs: 1, Entries: entries}
}

func sim(config string, us float64) Entry {
	return Entry{Backend: "simulated", Config: config, Elem: "u32", Size: 1024, US: us}
}

func autoEntry(planConfig string, us float64) Entry {
	e := sim("auto", us)
	e.Plan = "planned " + planConfig
	e.PlanConfig = planConfig
	return e
}

func TestGateAutoChosenShapeWins(t *testing.T) {
	// Within 10% of the best shape passes, even when it is not the
	// best. Kernel rows are wall time and never enter the ranking.
	kernel := Entry{Backend: "kernel", Config: "radix", Elem: "u32", Size: 1024, US: 1, MinUS: 1}
	s := snap(sim("smart/p1", 100), sim("sample/p4", 95), sim("radix/p4", 500), autoEntry("smart/p1", 100), kernel)
	if f := gateAuto(s, 0.10); len(f) != 0 {
		t.Fatalf("gate failed for a competitive plan: %v", f)
	}
}

func TestGateAutoUnsweptPlanUsesAutoTime(t *testing.T) {
	// The gate reads the auto run's own model time, so a plan outside
	// the fixed sweep is judged like any other.
	s := snap(sim("smart/p1", 100), sim("smart/p4", 500), autoEntry("sample/p2", 105))
	if f := gateAuto(s, 0.10); len(f) != 0 {
		t.Fatalf("gate failed for a competitive unswept plan: %v", f)
	}
	s = snap(sim("smart/p1", 100), sim("smart/p4", 500), autoEntry("sample/p2", 111))
	if f := gateAuto(s, 0.10); len(f) != 1 {
		t.Fatalf("failures = %v, want the within-tolerance clause", f)
	}
}

func TestGateAutoBadChoiceFails(t *testing.T) {
	// The planner's kv64/1024 choice before the radix width fix:
	// smart/p1 at 2.27x the model time of sample/p4, though not the
	// worst shape. Only the within-tolerance clause fires.
	kv := func(e Entry) Entry { e.Elem = "kv64"; return e }
	s := snap(kv(sim("smart/p1", 12288)), kv(sim("sample/p4", 5405.32)),
		kv(sim("radix/p4", 110334.42)), kv(autoEntry("smart/p1", 12288)))
	f := gateAuto(s, 0.10)
	if len(f) != 1 || !strings.Contains(f[0], "not within 10%") || !strings.Contains(f[0], "kv64/1024") {
		t.Fatalf("failures = %v, want exactly the kv64 within-tolerance clause", f)
	}

	// Slower than every fixed shape: the worst-shape clause fires too.
	s = snap(sim("smart/p1", 100), sim("smart/p4", 500), autoEntry("smart/p4", 600))
	if f := gateAuto(s, 0.10); len(f) != 2 {
		t.Fatalf("failures = %v, want both clauses", f)
	}
}

func TestCompareSimulatedStrict(t *testing.T) {
	base := snap(sim("smart/p4", 1000))
	if f := compare(snap(sim("smart/p4", 1000.5)), base, 0.001); len(f) != 0 {
		t.Fatalf("0.05%% deviation failed the 0.1%% gate: %v", f)
	}
	f := compare(snap(sim("smart/p4", 1010)), base, 0.001)
	if len(f) != 1 || !strings.Contains(f[0], "cost model changed") {
		t.Fatalf("1%% deviation: failures = %v, want the simulated clause", f)
	}
}

func TestCompareSkipsMissingEntries(t *testing.T) {
	// The quick sweep is a subset of the full grid: baseline entries
	// with no host counterpart are skipped, not failed; kernel rows
	// are never compared.
	base := snap(
		Entry{Backend: "simulated", Config: "smart/p4", Elem: "u64", Size: 1 << 16, US: 5},
		Entry{Backend: "kernel", Config: "radix", Elem: "u32", Size: 1 << 16, US: 5, MinUS: 5},
	)
	host := snap(Entry{Backend: "kernel", Config: "radix", Elem: "u32", Size: 1 << 16, US: 500, MinUS: 500})
	if f := compare(host, base, 0.001); len(f) != 0 {
		t.Fatalf("missing or kernel entries gated: %v", f)
	}
}

func TestLoadSnapshotValidates(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := loadSnapshot(write("ok.json", `{"schema":"parbitonic-bench","version":3}`)); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	if _, err := loadSnapshot(write("schema.json", `{"schema":"other","version":3}`)); err == nil {
		t.Fatal("foreign schema accepted")
	}
	if _, err := loadSnapshot(write("version.json", `{"schema":"parbitonic-bench","version":99}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := loadSnapshot(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadSnapshotRefusesV2(t *testing.T) {
	// A v2 snapshot carries native end-to-end rows this harness no
	// longer writes; it must be regenerated, not half-read.
	p := filepath.Join(t.TempDir(), "v2.json")
	if err := os.WriteFile(p, []byte(`{"schema":"parbitonic-bench","version":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := loadSnapshot(p)
	if err == nil || !strings.Contains(err.Error(), "version 2, want 3") || !strings.Contains(err.Error(), "regenerate") {
		t.Fatalf("v2 snapshot: err = %v, want the regenerate message", err)
	}
}

func TestRelDev(t *testing.T) {
	for _, tc := range []struct{ a, b, want float64 }{
		{100, 100, 0}, {110, 100, 0.1}, {90, 100, 0.1}, {0, 0, 0}, {5, 0, 1},
	} {
		if got := relDev(tc.a, tc.b); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("relDev(%g, %g) = %g, want %g", tc.a, tc.b, got, tc.want)
		}
	}
}
