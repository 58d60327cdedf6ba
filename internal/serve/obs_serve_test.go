package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"parbitonic"
	"parbitonic/internal/fault"
	"parbitonic/internal/obs"
	"parbitonic/internal/spmd"
)

// TestRetriedRequestStages is the stage-clock regression test: a
// request whose first engine attempt crashes and whose retry succeeds
// must come out with a non-negative stage breakdown that sums to no
// more than its end-to-end latency — re-queued hops must never produce
// a negative delta (the bug the one-reading-per-hop design removes).
func TestRetriedRequestStages(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Kind: fault.Crash, Proc: 1, Round: 0})
	s, err := New(Config{
		Engine: parbitonic.Config{
			Processors:  2,
			Backend:     parbitonic.Native,
			WrapCharger: inj.Wrap,
		},
		MaxBatch:       1,
		Retries:        2,
		RetryBackoff:   200 * time.Microsecond,
		DisableBreaker: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	keys := randKeys(rand.New(rand.NewSource(7)), 512, 1<<31)
	sorted, err := s.Sort(context.Background(), keys)
	if err != nil {
		t.Fatalf("retried request must succeed: %v", err)
	}
	want := sortedRef(keys)
	for i := range want {
		if sorted[i] != want[i] {
			t.Fatalf("retried output wrong at %d", i)
		}
	}
	if got := s.Metrics().RetryCount(); got != 1 {
		t.Fatalf("retries = %v, want 1", got)
	}

	recent := s.Metrics().RecentRequests()
	if len(recent) != 1 {
		t.Fatalf("recent requests = %d, want 1", len(recent))
	}
	rec := recent[0]
	if !rec.Retried {
		t.Error("record must be marked retried")
	}
	if rec.Stages[obs.StageRetry] <= 0 {
		t.Errorf("retry stage = %v, want > 0 (the backoff sleep)", rec.Stages[obs.StageRetry])
	}
	if rec.Stages[obs.StageEngine] <= 0 {
		t.Errorf("engine stage = %v, want > 0 (two attempts)", rec.Stages[obs.StageEngine])
	}
	for st, d := range rec.Stages {
		if d < 0 {
			t.Errorf("stage %v is negative: %v", obs.Stage(st), d)
		}
	}
	if sum := rec.Stages.Sum(); sum > rec.Total {
		t.Errorf("stage sum %v exceeds end-to-end latency %v", sum, rec.Total)
	}
	if neg := s.Metrics().Stages().Negatives(); neg != 0 {
		t.Errorf("negative stage readings = %d, want 0", neg)
	}
}

// TestBatchTraceFlowLinkage: a coalesced engine run's Chrome trace must
// carry one flow event pair (s -> f) per member request, each labeled
// with its request ID, so the rendered timeline ties N request rows to
// the single run that served them.
func TestBatchTraceFlowLinkage(t *testing.T) {
	ct := obs.NewChromeTrace()
	s, err := New(Config{
		Engine:   parbitonic.Config{Processors: 2, Backend: parbitonic.Native, Obs: ct},
		MaxBatch: 4,
		MaxDelay: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ids := []string{"flow-a", "flow-b", "flow-c"}
	coalesced := false
	for attempt := 0; attempt < 5 && !coalesced; attempt++ {
		ct.Reset()
		before, _ := s.Metrics().BatchCount()
		var wg sync.WaitGroup
		for i, id := range ids {
			wg.Add(1)
			go func(i int, id string) {
				defer wg.Done()
				ctx := obs.WithRequestID(context.Background(), id)
				if _, err := s.Sort(ctx, []uint32{uint32(3 + i), 1, 2}); err != nil {
					t.Errorf("%s: %v", id, err)
				}
			}(i, id)
		}
		wg.Wait()
		after, _ := s.Metrics().BatchCount()
		coalesced = after == before+1 // all three shared one run
	}
	if t.Failed() {
		return
	}
	if !coalesced {
		t.Fatal("requests never coalesced into one run; cannot test flow linkage")
	}

	var buf bytes.Buffer
	if err := ct.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			BP   string         `json:"bp"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}

	requestsTrack := false
	starts := map[string]bool{}
	finishes := map[string]bool{}
	for _, e := range trace.TraceEvents {
		if e.Name == "thread_name" && e.Ph == "M" {
			if name, _ := e.Args["name"].(string); name == "requests" {
				requestsTrack = true
			}
		}
		id, _ := e.Args["request_id"].(string)
		switch e.Ph {
		case "s":
			starts[id] = true
		case "f":
			finishes[id] = true
			if e.BP != "e" {
				t.Errorf("flow finish for %q must bind enclosing (bp=e), got %q", id, e.BP)
			}
			if e.Tid != 0 {
				t.Errorf("flow finish for %q must land on a processor track, got tid %d", id, e.Tid)
			}
		}
	}
	if !requestsTrack {
		t.Error("trace is missing the named requests track")
	}
	for _, id := range ids {
		if !starts[id] {
			t.Errorf("no flow start for request %q", id)
		}
		if !finishes[id] {
			t.Errorf("no flow finish for request %q", id)
		}
	}
}

// TestDegradedSpanRequestID: a request served by the sequential
// fallback flushes a service-level degraded span carrying the owning
// request ID — the request's timeline shows who served it even though
// no processor did.
func TestDegradedSpanRequestID(t *testing.T) {
	ct := obs.NewChromeTrace()
	ecfg := persistentCrash()
	ecfg.Obs = ct
	s, err := New(Config{
		Engine:         ecfg,
		MaxBatch:       1,
		Retries:        -1,
		DisableBreaker: true,
		Degraded:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := obs.WithRequestID(context.Background(), "deg-req-1")
	sorted, degraded, err := s.SortDegradable(ctx, []uint32{4, 2, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !degraded {
		t.Fatal("request must be served degraded")
	}
	for i, want := range []uint32{1, 2, 3, 4} {
		if sorted[i] != want {
			t.Fatalf("degraded output wrong at %d", i)
		}
	}

	found := false
	for _, sp := range ct.Spans() {
		if sp.Phase == obs.PhaseDegraded {
			found = true
			if sp.Req != "deg-req-1" {
				t.Errorf("degraded span carries request ID %q, want deg-req-1", sp.Req)
			}
			if sp.Proc >= 0 {
				t.Errorf("degraded span on processor %d, want a service-level track", sp.Proc)
			}
		}
	}
	if !found {
		t.Error("no degraded span was flushed")
	}

	rec := s.Metrics().RecentRequests()[0]
	if rec.ID != "deg-req-1" || !rec.Degraded {
		t.Errorf("record = %+v, want degraded deg-req-1", rec)
	}
	if rec.Stages[obs.StageEngine] <= 0 {
		t.Error("degraded serving time must be charged to the engine stage")
	}
}

// TestHTTPRequestIDEcho: EVERY /sort response path — success, 405, 400
// (malformed JSON and typed frame errors), 503 after shutdown — must
// echo X-Request-ID in the header and the JSON body, and a traceparent
// arrival joins on its trace-id.
func TestHTTPRequestIDEcho(t *testing.T) {
	s, ts := newTestServer(t)
	client := ts.Client()

	do := func(method, url, contentType, body string, hdr map[string]string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Success: the client's ID comes back on the header and in the body.
	resp := do("POST", ts.URL+"/sort", "application/json", `{"keys":[3,1,2]}`,
		map[string]string{"X-Request-ID": "abc-echo-1"})
	if got := resp.Header.Get("X-Request-ID"); got != "abc-echo-1" {
		t.Errorf("success header echo = %q, want abc-echo-1", got)
	}
	var ok sortResponse
	json.NewDecoder(resp.Body).Decode(&ok)
	resp.Body.Close()
	if ok.RequestID != "abc-echo-1" {
		t.Errorf("success body request_id = %q, want abc-echo-1", ok.RequestID)
	}

	// Traceparent arrival: the trace-id is adopted.
	traceID := "4bf92f3577b34da6a3ce929d0e0e4736"
	resp = do("POST", ts.URL+"/sort", "application/json", `{"keys":[2,1]}`,
		map[string]string{"traceparent": "00-" + traceID + "-00f067aa0ba902b7-01"})
	if got := resp.Header.Get("X-Request-ID"); got != traceID {
		t.Errorf("traceparent echo = %q, want the trace-id", got)
	}
	resp.Body.Close()

	// No ID offered: one is minted (16 hex digits).
	resp = do("POST", ts.URL+"/sort", "application/json", `{"keys":[2,1]}`, nil)
	if got := resp.Header.Get("X-Request-ID"); len(got) != 16 {
		t.Errorf("minted ID = %q, want 16 hex digits", got)
	}
	resp.Body.Close()

	// A hostile header (control characters) is replaced by a minted ID.
	// Go's HTTP client refuses to even send such a value, so this one
	// goes straight to the handler.
	hostile := httptest.NewRequest("POST", "/sort", strings.NewReader(`{"keys":[2,1]}`))
	hostile.Header.Set("Content-Type", "application/json")
	hostile.Header["X-Request-Id"] = []string{"evil\x01id"}
	rw := httptest.NewRecorder()
	handleSort(gatewayOf(s), rw, hostile)
	if got := rw.Header().Get("X-Request-ID"); len(got) != 16 || strings.ContainsAny(got, "\x01") {
		t.Errorf("hostile ID handling: header = %q, want a minted 16-hex ID", got)
	}

	// Error paths: each must echo the ID on header AND body.
	errCases := []struct {
		name, method, contentType, body string
		wantStatus                      int
	}{
		{"405-method", "GET", "", "", http.StatusMethodNotAllowed},
		{"400-malformed-json", "POST", "application/json", "{", http.StatusBadRequest},
		{"400-ragged-binary", "POST", "application/octet-stream", "abc", http.StatusBadRequest},
		{"400-frame-bad-version", "POST", "application/octet-stream", "PBSF\x63\x00\x00\x00", http.StatusBadRequest},
	}
	for _, tc := range errCases {
		id := "err-" + tc.name
		resp := do(tc.method, ts.URL+"/sort", tc.contentType, tc.body,
			map[string]string{"X-Request-ID": id})
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.wantStatus)
		}
		if got := resp.Header.Get("X-Request-ID"); got != id {
			t.Errorf("%s: header echo = %q, want %q", tc.name, got, id)
		}
		var e errorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if e.RequestID != id {
			t.Errorf("%s: body request_id = %q, want %q", tc.name, e.RequestID, id)
		}
	}

	// The typed frame rejection keeps its machine-readable code.
	resp = do("POST", ts.URL+"/sort", "application/octet-stream", "PBSF\x63\x00\x00\x00",
		map[string]string{"X-Request-ID": "frame-code"})
	var fe errorResponse
	json.NewDecoder(resp.Body).Decode(&fe)
	resp.Body.Close()
	if fe.Code != "bad-version" || fe.RequestID != "frame-code" {
		t.Errorf("frame error body = %+v, want code bad-version with the ID", fe)
	}

	// 503 after Close still echoes.
	s.Close()
	resp = do("POST", ts.URL+"/sort", "application/json", `{"keys":[2,1]}`,
		map[string]string{"X-Request-ID": "after-close"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-close status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "after-close" {
		t.Errorf("post-close header echo = %q", got)
	}
	var ce errorResponse
	json.NewDecoder(resp.Body).Decode(&ce)
	resp.Body.Close()
	if ce.RequestID != "after-close" {
		t.Errorf("post-close body request_id = %q", ce.RequestID)
	}
}

// TestSortzEndpoint: the live ops page must expose recent requests with
// their IDs and non-negative stage breakdowns as JSON, and render the
// same through html/template for humans.
func TestSortzEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	client := ts.Client()

	for _, id := range []string{"sortz-a", "sortz-b"} {
		req, _ := http.NewRequest("POST", ts.URL+"/sort", strings.NewReader(`{"keys":[9,4,6,1]}`))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-ID", id)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := client.Get(ts.URL + "/debug/sortz?format=json")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("sortz JSON content type %q", ct)
	}
	var snap SortzSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("sortz JSON: %v", err)
	}
	resp.Body.Close()

	if len(snap.Elems) != 1 || snap.Elems[0].Elem != "u32" {
		t.Fatalf("sortz elems = %+v, want one u32 entry", snap.Elems)
	}
	e := snap.Elems[0]
	if e.Negatives != 0 {
		t.Errorf("negative stage readings = %d, want 0", e.Negatives)
	}
	if _, ok := snap.Runtime["heap_bytes"]; !ok {
		t.Error("sortz runtime section missing heap_bytes")
	}
	seen := map[string]bool{}
	for _, rec := range e.Recent {
		seen[rec.ID] = true
		if rec.Total <= 0 {
			t.Errorf("request %s has total %v", rec.ID, rec.Total)
		}
		for st, d := range rec.Stages {
			if d < 0 {
				t.Errorf("request %s stage %v negative: %v", rec.ID, obs.Stage(st), d)
			}
		}
		if sum := rec.Stages.Sum(); sum > rec.Total {
			t.Errorf("request %s stage sum %v exceeds total %v", rec.ID, sum, rec.Total)
		}
	}
	if !seen["sortz-a"] || !seen["sortz-b"] {
		t.Errorf("recent requests missing the submitted IDs: %v", seen)
	}
	if len(e.Slowest) == 0 {
		t.Error("slowest ring is empty after served requests")
	}

	resp, err = client.Get(ts.URL + "/debug/sortz")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("sortz HTML content type %q", ct)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"sortz", "elem u32", "sortz-a", "slowest requests", "recent requests"} {
		if !bytes.Contains(page, []byte(want)) {
			t.Errorf("sortz HTML missing %q", want)
		}
	}
}

// TestHealthzSLOUnready: sustained error-budget burn must flip /healthz
// to 503-unready with the burning element named, and the burn must be
// visible on /metrics.
func TestHealthzSLOUnready(t *testing.T) {
	s, err := New(Config{
		Engine:   parbitonic.Config{Processors: 2, Backend: parbitonic.Native},
		MaxBatch: 1,
		SLO: obs.SLOConfig{
			// Nothing sorts in under a nanosecond: every served request
			// breaches, so a handful of requests is sustained burn.
			Threshold:   time.Nanosecond,
			Target:      0.5,
			MinSamples:  3,
			UnreadyBurn: 1.5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(NewGatewayHandler(gatewayOf(s), nil))
	defer ts.Close()
	client := ts.Client()

	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before traffic: %d, want 200 (no samples is not an incident)", resp.StatusCode)
	}

	for i := 0; i < 5; i++ {
		resp, err := client.Post(ts.URL+"/sort", "application/json", strings.NewReader(`{"keys":[5,3,4,1]}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err = client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz under full burn: %d, want 503", resp.StatusCode)
	}
	var health struct {
		Status  string   `json:"status"`
		Reasons []string `json:"reasons"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "unready" || len(health.Reasons) == 0 || !strings.Contains(health.Reasons[0], "u32") {
		t.Errorf("healthz body = %+v, want unready with the u32 burn named", health)
	}

	resp, err = client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`parbitonic_serve_slo_burn_rate{elem="u32"} 2`,
		`parbitonic_serve_slo_requests_total{elem="u32",verdict="breach"} 5`,
	} {
		if !bytes.Contains(scrape, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// lockedBuffer is a mutex-guarded bytes.Buffer for capturing slog
// output written from worker goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestE2EStageSumAcceptance is the PR's acceptance test: a request
// tagged X-Request-ID: abc gets the ID back, shows up in the
// structured logs, and its sortz stage breakdown sums to within 5% of
// its measured end-to-end latency. The request is large enough that
// engine time dominates scheduler handoff (the only uncharged
// residue).
func TestE2EStageSumAcceptance(t *testing.T) {
	logBuf := &lockedBuffer{}
	sink := obs.NewSlogSink(slog.New(slog.NewJSONHandler(logBuf, nil)))
	s, err := New(Config{
		Engine:   parbitonic.Config{Processors: 4, Backend: parbitonic.Native, Obs: sink},
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(NewGatewayHandler(gatewayOf(s), nil))
	defer ts.Close()
	client := ts.Client()

	keys := randKeys(rand.New(rand.NewSource(99)), 1<<18, 1<<31)
	req, _ := http.NewRequest("POST", ts.URL+"/sort", bytes.NewReader(u32Frame(keys)))
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("X-Request-ID", "abc")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "abc" {
		t.Fatalf("header echo = %q, want abc", got)
	}

	resp, err = client.Get(ts.URL + "/debug/sortz?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var snap SortzSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var rec *RequestRecord
	for i := range snap.Elems[0].Recent {
		if snap.Elems[0].Recent[i].ID == "abc" {
			rec = &snap.Elems[0].Recent[i]
			break
		}
	}
	if rec == nil {
		t.Fatal("request abc not in the sortz recent ring")
	}
	if rec.Keys != len(keys) {
		t.Errorf("record keys = %d, want %d", rec.Keys, len(keys))
	}
	sum, total := rec.Stages.Sum(), rec.Total
	if sum <= 0 || total <= 0 {
		t.Fatalf("degenerate breakdown: sum %v, total %v", sum, total)
	}
	if sum > total {
		t.Errorf("stage sum %v exceeds end-to-end latency %v", sum, total)
	}
	if residue := total - sum; residue > total/20 {
		t.Errorf("stage sum %v accounts for less than 95%% of total %v (residue %v = %.1f%%)",
			sum, total, residue, 100*float64(residue)/float64(total))
	}

	logs := logBuf.String()
	if !strings.Contains(logs, `"requests":"abc"`) {
		t.Errorf("structured run logs never mention request abc:\n%s", firstLines(logs, 6))
	}
}

// firstLines returns at most n leading lines of s, for terse failures.
func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

// TestSortzActiveBatches: an engine run in flight is visible on the
// ops page with its member request IDs, and disappears once done.
func TestSortzActiveBatches(t *testing.T) {
	gate := make(chan struct{})
	g := &gateCharger{gate: gate}
	s, err := New(Config{
		Engine: parbitonic.Config{
			Processors: 2,
			Backend:    parbitonic.Native,
			WrapCharger: func(inner spmd.Charger) spmd.Charger {
				g.Charger = inner
				return g
			},
		},
		MaxBatch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s.Close()
	}()

	done := make(chan error, 1)
	go func() {
		ctx := obs.WithRequestID(context.Background(), "active-1")
		_, err := s.Sort(ctx, []uint32{4, 1, 3, 2})
		done <- err
	}()

	// Wait for the run to wedge on the gate, then snapshot.
	var active []ActiveBatch
	deadline := time.Now().Add(5 * time.Second)
	for {
		active = s.Metrics().ActiveBatches()
		if len(active) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never became active")
		}
		time.Sleep(time.Millisecond)
	}
	if len(active[0].Requests) != 1 || active[0].Requests[0] != "active-1" {
		t.Errorf("active batch requests = %v, want [active-1]", active[0].Requests)
	}
	if active[0].Keys != 4 {
		t.Errorf("active batch keys = %d, want 4", active[0].Keys)
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for len(s.Metrics().ActiveBatches()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch never left the active set")
		}
		time.Sleep(time.Millisecond)
	}
}
