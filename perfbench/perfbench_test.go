package main

import (
	"cmp"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"parbitonic/element"
	"parbitonic/internal/verify"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct {
		q    float64
		want float64
	}{{50, 5}, {90, 9}, {100, 10}, {1, 1}, {0, 1}} {
		got, n := percentile(samples, c.q)
		if got != c.want || n != len(samples) {
			t.Errorf("percentile(q=%v) = %v over %d samples, want %v over %d", c.q, got, n, c.want, len(samples))
		}
	}
	if samples[0] != 10 {
		t.Errorf("percentile reordered its input")
	}
	if v, n := percentile(nil, 90); !math.IsNaN(v) || n != 0 {
		t.Errorf("percentile(nil) = %v, %d; want NaN, 0", v, n)
	}
	if got := median([]float64{3}); got != 3 {
		t.Errorf("median of one sample = %v", got)
	}
}

func TestRemainder(t *testing.T) {
	got, err := remainder("wait", 10, 6, 3)
	if err != nil || got != 1 {
		t.Fatalf("remainder(10; 6, 3) = %v, %v; want 1, nil", got, err)
	}
	if got, err := remainder("exact", 5, 5); err != nil || got != 0 {
		t.Fatalf("remainder(5; 5) = %v, %v; want 0, nil", got, err)
	}
	if _, err := remainder("overhead", 4, 5); err == nil || !strings.Contains(err.Error(), "overhead") {
		t.Fatalf("negative remainder not reported by name: %v", err)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tperfbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n"
	got, err := parseVmHWM(strings.NewReader(status))
	if err != nil || got != 50 {
		t.Fatalf("parseVmHWM = %v, %v; want 50 MiB", got, err)
	}
	if _, err := parseVmHWM(strings.NewReader("VmRSS:\t1 kB\n")); err == nil {
		t.Errorf("missing VmHWM line accepted")
	}
	if _, err := parseVmHWM(strings.NewReader("VmHWM:\t12 MB\n")); err == nil {
		t.Errorf("VmHWM in an unexpected unit accepted")
	}
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc on this system")
	}
	if live, err := peakRSSMiB(); err != nil || live <= 0 {
		t.Errorf("peakRSSMiB = %v, %v; want a positive reading", live, err)
	}
}

func TestCheckSortedRejectsSwappedPair(t *testing.T) {
	in := genU32(7, 256)
	want := verify.Sum(in)
	out := slices.Clone(in)
	slices.Sort(out)
	if err := checkSorted(out, want); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	i := slices.IndexFunc(out[1:], func(k uint32) bool { return k != out[0] }) + 1
	out[0], out[i] = out[i], out[0]
	if err := checkSorted(out, want); err == nil {
		t.Fatalf("output with one swapped pair accepted")
	}
}

func TestCheckSortedRejectsAlteredPayload(t *testing.T) {
	in := genKV64(7, 256)
	want := verify.Sum(in)
	out := slices.Clone(in)
	slices.SortFunc(out, func(a, b element.KV64) int { return cmp.Compare(a.K, b.K) })
	if err := checkSorted(out, want); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	out[100].V++
	if err := checkSorted(out, want); err == nil {
		t.Fatalf("output with one altered payload accepted")
	}
}

func TestCheckResponse(t *testing.T) {
	in := genBodies(7, 1, 64)[0]
	want := verify.Sum(in)
	sorted := slices.Clone(in)
	slices.Sort(sorted)
	good := encodeFrame(sorted)
	if err := checkResponse[uint32](http.StatusOK, good, len(in), want); err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}
	bad := map[string]struct {
		status int
		body   []byte
	}{
		"truncated frame": {http.StatusOK, good[:len(good)-1]},
		"missing element": {http.StatusOK, good[:len(good)-4]},
		"wrong status":    {http.StatusBadRequest, good},
		"wrong elem type": {http.StatusOK, append([]byte{'P', 'B', 'S', 'F', 1, byte(element.TU64), 0, 0}, good[frameHeaderLen:]...)},
		"unsorted":        {http.StatusOK, encodeFrame(in)},
	}
	for name, c := range bad {
		if err := checkResponse[uint32](c.status, c.body, len(in), want); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestBenchmarkJSONMatches pins the metric names and units the command
// prints to the ones BENCHMARK.json declares, and checks that every
// declared workload is one the command runs.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, d := range spec.Workloads {
		if !slices.ContainsFunc(workloads, func(w workload) bool { return w.name == d.Name }) {
			t.Errorf("BENCHMARK.json declares workload %s, which the command does not run", d.Name)
		}
	}
	for _, c := range []struct {
		defs     []metricDef
		declared []struct{ Name, Unit string }
	}{{endToEndMetrics, spec.EndToEnd}, {layerMetrics, spec.PerLayer}} {
		if len(c.defs) != len(c.declared) {
			t.Errorf("%d metrics, BENCHMARK.json declares %d", len(c.defs), len(c.declared))
			continue
		}
		for i, d := range c.defs {
			if d.name != c.declared[i].Name || d.unit != c.declared[i].Unit {
				t.Errorf("metric %d is %s [%s], BENCHMARK.json declares %s [%s]", i, d.name, d.unit, c.declared[i].Name, c.declared[i].Unit)
			}
		}
	}
}

func TestParseProcStat(t *testing.T) {
	stat := "cpu  100 5 20 300 4 1 2 8 7 0\ncpu0 50 2 10 150 2 0 1 4 3 0\n"
	steal, total, err := parseProcStat(strings.NewReader(stat))
	if err != nil || steal != 8 || total != 440 {
		t.Fatalf("parseProcStat = %d, %d, %v; want 8, 440, nil", steal, total, err)
	}
	if _, _, err := parseProcStat(strings.NewReader("cpu0 1 2 3\n")); err == nil {
		t.Errorf("malformed line accepted")
	}
}

func TestWindowKeptLeastStolen(t *testing.T) {
	at := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	// Three 1 s chunks with 10 %, 0 % and 50 % steal.
	w := window{marks: []stealMark{
		{at(0), 0, 0}, {at(1), 10, 100}, {at(2), 10, 200}, {at(3), 60, 300},
	}}
	// Two callers, each starting one call per half second.
	w.calls = make([][]call, 2)
	for i, s := range []float64{0, 0.5, 1, 1.5, 2, 2.5} {
		w.calls[i%2] = append(w.calls[i%2], call{start: at(s), ms: float64(i + 1), keys: 10})
	}
	calls, timed, steal := w.kept(0.5)
	var ms []float64
	for _, c := range calls {
		ms = append(ms, c.ms)
	}
	slices.Sort(ms)
	if !slices.Equal(ms, []float64{1, 2, 3, 4}) {
		t.Fatalf("kept(0.5) kept calls %v; want the four of the 10 %% and 0 %% chunks", ms)
	}
	if timed != 10*time.Millisecond || math.Abs(steal-0.05) > 1e-12 {
		t.Errorf("kept(0.5) timed %v at steal %v; want 10ms of call time at 0.05", timed, steal)
	}
	w.concurrent = true
	if _, timed, _ := w.kept(1.0 / 3); timed != time.Second {
		t.Errorf("concurrent kept(1/3) timed %v; want the one 1 s chunk", timed)
	}
	if calls, _, steal := w.kept(1); len(calls) != 6 || math.Abs(steal-0.2) > 1e-12 {
		t.Errorf("kept(1) = %d calls at steal %v; want 6 at 0.2", len(calls), steal)
	}
}
