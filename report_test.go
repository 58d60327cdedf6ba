package parbitonic

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"parbitonic/internal/obs"
	"parbitonic/internal/schedule"
)

func randomKeys(t testing.TB, n int) []uint32 {
	t.Helper()
	r := rand.New(rand.NewSource(42))
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = r.Uint32()
	}
	return keys
}

// The simulator must match the §3.4 closed forms exactly: the measured
// remap count is R_smart = ceil(lgP + lgP(lgP+1)/(2 lgn)), and volume,
// messages and communication time drift by at most floating-point
// noise.
func TestSortReportSimulatedExact(t *testing.T) {
	const lgN, lgP = 14, 3
	keys := randomKeys(t, 1<<lgN)
	var rep SortReport
	_, err := Sort(keys, Config{
		Processors: 1 << lgP,
		Observe:    func(r SortReport) { rep = r },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quantities) == 0 {
		t.Fatalf("no quantities in report: %v", rep)
	}
	want := schedule.NumRemaps(lgN, lgP)
	byName := map[string]DriftQuantity{}
	for _, q := range rep.Quantities {
		byName[q.Name] = q
	}
	if r := byName["remaps"]; int(r.Measured) != want || int(r.Predicted) != want {
		t.Errorf("remaps measured=%v predicted=%v, want exactly %d", r.Measured, r.Predicted, want)
	}
	for _, name := range []string{"remaps", "volume", "messages"} {
		if d := byName[name].Drift(); d != 1 {
			t.Errorf("%s drift = %v, want exactly 1", name, d)
		}
	}
	ct, ok := byName["comm-time"]
	if !ok {
		t.Fatal("simulated report missing comm-time")
	}
	if dev := math.Abs(ct.Drift() - 1); dev > 1e-9 {
		t.Errorf("comm-time drift = %v, deviation %v exceeds fp tolerance", ct.Drift(), dev)
	}
	if d := rep.MaxDrift(); d > 1e-9 {
		t.Errorf("MaxDrift = %v, want ~0", d)
	}
	if s := rep.String(); !strings.Contains(s, "remaps") || !strings.Contains(s, "smart-bitonic") {
		t.Errorf("String() missing content:\n%s", s)
	}
}

// Short-message mode swaps the comm-time closed form (TotalShort); the
// exactness guarantee holds there too.
func TestSortReportShortMessages(t *testing.T) {
	keys := randomKeys(t, 1<<12)
	var rep SortReport
	_, err := Sort(keys, Config{
		Processors: 4,
		Sim:        SimOptions{ShortMessages: true},
		Observe:    func(r SortReport) { rep = r },
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := rep.MaxDrift(); d > 1e-9 {
		t.Errorf("MaxDrift = %v, want ~0; report:\n%s", d, rep)
	}
}

// The baselines have their own closed forms; cyclic-blocked predicts
// all three metrics, blocked-merge volume and messages (its remote
// steps are pairwise exchanges, not remaps).
func TestSortReportBaselines(t *testing.T) {
	for _, tc := range []struct {
		alg        Algorithm
		wantRemaps bool
	}{
		{CyclicBlockedBitonic, true},
		{BlockedMergeBitonic, false},
	} {
		keys := randomKeys(t, 1<<12)
		var rep SortReport
		_, err := Sort(keys, Config{
			Processors: 4,
			Algorithm:  tc.alg,
			Observe:    func(r SortReport) { rep = r },
		})
		if err != nil {
			t.Fatalf("%v: %v", tc.alg, err)
		}
		names := map[string]bool{}
		for _, q := range rep.Quantities {
			names[q.Name] = true
		}
		if names["remaps"] != tc.wantRemaps {
			t.Errorf("%v: remaps quantity present=%v, want %v", tc.alg, names["remaps"], tc.wantRemaps)
		}
		if d := rep.MaxDrift(); d > 1e-9 {
			t.Errorf("%v: MaxDrift = %v, want ~0; report:\n%s", tc.alg, d, rep)
		}
	}
}

// Native runs predict the communication metrics (exact, they are
// counts) but not comm-time (the model does not describe shared-memory
// transfers).
func TestSortReportNative(t *testing.T) {
	keys := randomKeys(t, 1<<12)
	var rep SortReport
	_, err := Sort(keys, Config{
		Processors: 4,
		Backend:    Native,
		Observe:    func(r SortReport) { rep = r },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range rep.Quantities {
		if q.Name == "comm-time" {
			t.Error("native report should not include comm-time")
		}
		if d := q.Drift(); d != 1 {
			t.Errorf("%s drift = %v, want exactly 1 (counts are backend-independent)", q.Name, d)
		}
	}
	if len(rep.Quantities) != 3 {
		t.Errorf("want 3 quantities (remaps, volume, messages), got %v", rep.Quantities)
	}
}

// Sample sort and P=1 have no closed form: the report says so instead
// of inventing numbers.
func TestSortReportUnpredictable(t *testing.T) {
	keys := randomKeys(t, 1<<10)
	var rep SortReport
	if _, err := Sort(keys, Config{
		Processors: 4,
		Algorithm:  SampleSort,
		Observe:    func(r SortReport) { rep = r },
	}); err != nil {
		t.Fatal(err)
	}
	if len(rep.Quantities) != 0 || rep.Note == "" {
		t.Errorf("sample sort: want empty quantities with note, got %+v", rep)
	}
	if _, err := Sort(randomKeys(t, 1<<8), Config{
		Processors: 1,
		Observe:    func(r SortReport) { rep = r },
	}); err != nil {
		t.Fatal(err)
	}
	if len(rep.Quantities) != 0 || rep.Note == "" {
		t.Errorf("P=1: want empty quantities with note, got %+v", rep)
	}
}

func TestDriftQuantityEdgeCases(t *testing.T) {
	if d := (DriftQuantity{Predicted: 0, Measured: 0}).Drift(); d != 1 {
		t.Errorf("0/0 drift = %v, want 1", d)
	}
	if d := (DriftQuantity{Predicted: 0, Measured: 3}).Drift(); !math.IsInf(d, 1) {
		t.Errorf("3/0 drift = %v, want +Inf", d)
	}
	r := SortReport{Quantities: []DriftQuantity{{Name: "x", Measured: 1, Predicted: 0}}}
	if d := r.MaxDrift(); !math.IsInf(d, 1) {
		t.Errorf("MaxDrift with zero prediction = %v, want +Inf", d)
	}
}

// A full Config.Obs pipeline over both backends: the Chrome sink must
// see one track per processor with spans for every phase of every
// round, the metrics sink must count the run, and the events stream
// must stay empty for a clean run.
func TestSortObsIntegration(t *testing.T) {
	for _, backend := range []Backend{Simulated, Native} {
		keys := randomKeys(t, 1<<12)
		const P = 4
		ct := obs.NewChromeTrace()
		mx := obs.NewMetrics()
		_, err := Sort(keys, Config{
			Processors: P,
			Backend:    backend,
			Obs:        obs.Multi(ct, mx),
		})
		if err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		spans := ct.Spans()
		if len(spans) == 0 {
			t.Fatalf("%v: no spans recorded", backend)
		}
		// Every processor appears, and every round of every processor
		// has compute and transfer activity.
		type procRound struct{ proc, round int }
		havePhase := map[procRound]map[obs.Phase]bool{}
		procs := map[int]bool{}
		for _, s := range spans {
			procs[s.Proc] = true
			pr := procRound{s.Proc, s.Round}
			if havePhase[pr] == nil {
				havePhase[pr] = map[obs.Phase]bool{}
			}
			havePhase[pr][s.Phase] = true
		}
		if len(procs) != P {
			t.Errorf("%v: spans cover %d processors, want %d", backend, len(procs), P)
		}
		for pr, phases := range havePhase {
			if !phases[obs.PhaseCompute] {
				t.Errorf("%v: proc %d round %d has no compute span", backend, pr.proc, pr.round)
			}
		}
		if got := mx.RunCount("ok"); got != 1 {
			t.Errorf("%v: RunCount(ok) = %v, want 1", backend, got)
		}
		if got := mx.EventCount(obs.EventAbort); got != 0 {
			t.Errorf("%v: abort events = %v, want 0", backend, got)
		}
	}
}
