package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestPhaseStrings(t *testing.T) {
	want := map[Phase]string{
		PhaseCompute: "compute", PhasePack: "pack", PhaseTransfer: "transfer",
		PhaseUnpack: "unpack", PhaseWait: "wait", PhaseAbort: "abort",
		PhaseDegraded: "degraded", NumPhases: "unknown",
	}
	for ph, w := range want {
		if got := ph.String(); got != w {
			t.Errorf("Phase(%d).String() = %q, want %q", ph, got, w)
		}
	}
}

// recordingSink counts calls, for Multi fan-out checks.
type recordingSink struct {
	mu                           sync.Mutex
	starts, flushes, emits, ends int
	spans                        int
}

func (r *recordingSink) RunStart(RunMeta) { r.mu.Lock(); r.starts++; r.mu.Unlock() }
func (r *recordingSink) FlushSpans(_ int, s []Span) {
	r.mu.Lock()
	r.flushes++
	r.spans += len(s)
	r.mu.Unlock()
}
func (r *recordingSink) Emit(Event)        { r.mu.Lock(); r.emits++; r.mu.Unlock() }
func (r *recordingSink) RunEnd(RunSummary) { r.mu.Lock(); r.ends++; r.mu.Unlock() }

func TestMultiFanOutSkipsNil(t *testing.T) {
	a, b := &recordingSink{}, &recordingSink{}
	m := Multi(a, nil, b, Nop{})
	m.RunStart(RunMeta{P: 4})
	m.FlushSpans(0, []Span{{Phase: PhaseCompute, End: 1}, {Phase: PhaseWait, End: 2}})
	m.Emit(Event{Kind: EventFault})
	m.RunEnd(RunSummary{})
	for _, s := range []*recordingSink{a, b} {
		if s.starts != 1 || s.flushes != 1 || s.spans != 2 || s.emits != 1 || s.ends != 1 {
			t.Fatalf("fan-out miscounted: %+v", s)
		}
	}
}

func TestChromeTraceJSON(t *testing.T) {
	c := NewChromeTrace()
	c.RunStart(RunMeta{P: 2, Keys: 128, Labels: map[string]string{"alg": "smart-bitonic", "backend": "native"}})
	c.FlushSpans(0, []Span{
		{Proc: 0, Round: 0, Phase: PhaseCompute, Start: 0, End: 10},
		{Proc: 0, Round: 0, Phase: PhaseTransfer, Start: 10, End: 12},
	})
	c.FlushSpans(1, []Span{{Proc: 1, Round: 1, Phase: PhaseWait, Start: 3, End: 9}})
	c.Emit(Event{Kind: EventFault, Proc: 1, Round: 1, Clock: 5, Detail: "crash@proc1/round1"})
	c.RunEnd(RunSummary{})

	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var threads, complete, instants int
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			if ev["name"] == "thread_name" {
				threads++
				args := ev["args"].(map[string]any)
				names[args["name"].(string)] = true
			}
		case "X":
			complete++
		case "i":
			instants++
		}
	}
	if threads != 2 || !names["proc 0"] || !names["proc 1"] {
		t.Fatalf("want one named track per processor, got %d (%v)", threads, names)
	}
	if complete != 3 {
		t.Fatalf("want 3 complete span events, got %d", complete)
	}
	if instants != 1 {
		t.Fatalf("want 1 instant event for the fault, got %d", instants)
	}
	if got := c.Spans(); len(got) != 3 || got[0].Proc != 0 || got[2].Proc != 1 {
		t.Fatalf("Spans() not sorted by proc: %+v", got)
	}
	c.Reset()
	if len(c.Spans()) != 0 {
		t.Fatal("Reset did not clear spans")
	}
}

func TestMetricsAggregationAndProm(t *testing.T) {
	m := NewMetrics()
	m.RunStart(RunMeta{P: 4, Keys: 1024})
	m.FlushSpans(0, []Span{
		{Phase: PhaseCompute, Start: 0, End: 100},    // 100 µs
		{Phase: PhaseTransfer, Start: 100, End: 150}, // 50 µs
	})
	m.Emit(Event{Kind: EventFault})
	m.Emit(Event{Kind: EventVerifyFailure})
	m.Emit(Event{Kind: EventVerifyFailure})
	m.RunEnd(RunSummary{Keys: 1024, Remaps: 20, Volume: 512, Messages: 60, Makespan: 1500, WallSeconds: 0.002})
	m.RunEnd(RunSummary{Err: "boom"})

	if got := m.RunCount("ok"); got != 1 {
		t.Fatalf("ok runs = %v, want 1", got)
	}
	if got := m.RunCount("error"); got != 1 {
		t.Fatalf("error runs = %v, want 1", got)
	}
	if got := m.EventCount(EventVerifyFailure); got != 2 {
		t.Fatalf("verify failures = %v, want 2", got)
	}
	if sec, n := m.PhaseSeconds(PhaseCompute); n != 1 || sec < 99e-6 || sec > 101e-6 {
		t.Fatalf("compute phase = (%v, %d), want ~100µs over 1 span", sec, n)
	}

	var buf bytes.Buffer
	if err := m.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`parbitonic_runs_total{outcome="ok"} 1`,
		`parbitonic_runs_total{outcome="error"} 1`,
		`parbitonic_events_total{kind="fault"} 1`,
		`parbitonic_events_total{kind="verify-failure"} 2`,
		`parbitonic_events_total{kind="cancel"} 0`, // pre-registered at zero
		`parbitonic_keys_sorted_total 1024`,
		`parbitonic_remaps_total 20`,
		`parbitonic_volume_keys_total 512`,
		`parbitonic_messages_total 60`,
		`parbitonic_phase_seconds_bucket{phase="compute",le="0.0001"} 1`,
		`parbitonic_phase_seconds_count{phase="compute"} 1`,
		`parbitonic_run_makespan_seconds_count 1`,
		`parbitonic_run_wall_seconds_count 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n----\n%s", want, text)
		}
	}
}

func TestMetricsHandler(t *testing.T) {
	m := NewMetrics()
	m.RunEnd(RunSummary{Keys: 64})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	for path, want := range map[string]string{
		"/metrics":    "parbitonic_runs_total",
		"/debug/vars": `"parbitonic"`,
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !strings.Contains(buf.String(), want) {
			t.Errorf("%s missing %q:\n%s", path, want, buf.String())
		}
	}
	if v := m.ExpvarFunc().String(); !strings.Contains(v, "keys_sorted") {
		t.Errorf("expvar snapshot missing keys_sorted: %s", v)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram(histBuckets)
	h.Observe(1e-6) // exactly on the first bound: le="1e-06" must include it
	h.Observe(2e-6)
	h.Observe(1000) // beyond every bound: only +Inf
	if h.counts[0] != 1 {
		t.Errorf("first bucket = %d, want 1 (boundary value is <= bound)", h.counts[0])
	}
	if h.counts[1] != 1 {
		t.Errorf("second bucket = %d, want 1", h.counts[1])
	}
	if h.counts[len(histBuckets)] != 1 {
		t.Errorf("overflow bucket = %d, want 1", h.counts[len(histBuckets)])
	}
	if h.Count() != 3 {
		t.Errorf("count = %d, want 3", h.Count())
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ n int }

func (f *failWriter) Write(b []byte) (int, error) {
	if f.n < len(b) {
		return 0, errors.New("disk full")
	}
	f.n -= len(b)
	return len(b), nil
}

// The exposition writer latches its first error and writes nothing
// after it; a headerless writer drops HELP/TYPE lines only.
func TestPromWriterLatchesErrorAndHeaders(t *testing.T) {
	fw := &failWriter{n: 10}
	p := NewPromWriter(fw, true)
	p.Printf("a 1\n")
	p.Header("b", "counter", "B.")
	p.Printf("c 1\n")
	if p.Err() == nil || fw.n != 6 {
		t.Fatalf("err = %v, bytes left = %d; want the header write to fail and latch", p.Err(), fw.n)
	}
	var buf bytes.Buffer
	q := NewPromWriter(&buf, false)
	q.Header("b", "counter", "B.")
	q.Printf("b 1\n")
	if buf.String() != "b 1\n" {
		t.Fatalf("headerless output = %q", buf.String())
	}
}

func TestSlogSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewSlogSink(slog.New(slog.NewTextHandler(&buf, nil)))
	s.RunStart(RunMeta{P: 8, Keys: 4096, Labels: map[string]string{"alg": "smart-bitonic"}})
	s.FlushSpans(0, []Span{{Phase: PhaseCompute, End: 1}}) // must not log
	s.Emit(Event{Kind: EventDeadline, Proc: 3, Detail: "deadline exceeded"})
	s.RunEnd(RunSummary{Keys: 4096, Makespan: 123, Remaps: 8})
	s.RunStart(RunMeta{P: 2})
	s.RunEnd(RunSummary{Err: "injected crash"})

	out := buf.String()
	for _, want := range []string{
		"sort run started", "procs=8", "alg=smart-bitonic",
		"runtime event", "kind=deadline",
		"sort run finished", "remaps=8",
		"sort run failed", `err="injected crash"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q\n----\n%s", want, out)
		}
	}
	// 2 starts + 1 event + 1 finish + 1 failure; span flushes add nothing.
	if strings.Count(out, "\n") != 5 {
		t.Errorf("want exactly 5 log records, got:\n%s", out)
	}
}

func TestConcurrentSinkUse(t *testing.T) {
	m := NewMetrics()
	c := NewChromeTrace()
	sink := Multi(m, c)
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sink.FlushSpans(p, []Span{{Proc: p, Phase: PhaseCompute, Start: float64(i), End: float64(i) + 1}})
				sink.Emit(Event{Kind: EventAbort, Proc: p})
			}
		}(p)
	}
	wg.Wait()
	if _, n := m.PhaseSeconds(PhaseCompute); n != 400 {
		t.Fatalf("compute spans = %d, want 400", n)
	}
	if got := m.EventCount(EventAbort); got != 400 {
		t.Fatalf("abort events = %v, want 400", got)
	}
	if got := len(c.Spans()); got != 400 {
		t.Fatalf("chrome spans = %d, want 400", got)
	}
}
