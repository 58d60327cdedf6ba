package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"parbitonic"
	"parbitonic/internal/fault"
	"parbitonic/internal/resilience"
	"parbitonic/internal/spmd"
	"parbitonic/internal/verify"
)

// crashCharger panics on processor 1 at the start of EVERY run — a
// persistently failing backend, unlike the one-shot fault.Injector.
type crashCharger struct {
	spmd.Charger
}

func (c *crashCharger) Start(p *spmd.PC) {
	if p.ID == 1 {
		panic("persistent backend fault")
	}
	c.Charger.Start(p)
}

// persistentCrash returns a Config whose every engine run fails with a
// contained *spmd.PanicError.
func persistentCrash() parbitonic.Config {
	return parbitonic.Config{
		Processors: 2,
		Backend:    parbitonic.Native,
		WrapCharger: func(inner spmd.Charger) spmd.Charger {
			return &crashCharger{Charger: inner}
		},
	}
}

// TestBreakerOpensAndFailsFast: persistent engine failures open the
// per-server breaker; once open, requests are refused with
// ErrBreakerOpen before touching the queue.
func TestBreakerOpensAndFailsFast(t *testing.T) {
	s, err := New(Config{
		Engine:   persistentCrash(),
		MaxBatch: 1,
		Retries:  -1,
		Breaker: resilience.BreakerConfig{
			Window: 4, MinSamples: 2, FailureRate: 0.5, Cooldown: time.Hour,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	keys := []uint32{3, 1, 2, 4}
	var pe *spmd.PanicError
	for i := 0; i < 2; i++ {
		if _, err := s.Sort(context.Background(), keys); !errors.As(err, &pe) {
			t.Fatalf("request %d: want a contained panic, got %v", i, err)
		}
	}
	_, err = s.Sort(context.Background(), keys)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("after 2 failures the breaker must fail fast, got %v", err)
	}
	if got := s.Metrics().RequestCount("breaker-open"); got != 1 {
		t.Errorf("breaker-open count = %v, want 1", got)
	}
	if secs := s.retryAfterSeconds(err); secs < 1 {
		t.Errorf("retryAfterSeconds(breaker open) = %d, want >= 1", secs)
	}
	if ps := s.Pool().Stats(); ps.Quarantined != 2 {
		t.Errorf("quarantined = %d, want 2", ps.Quarantined)
	}
}

// TestBreakerOpenDegradedEquality: with degraded mode on, an open
// breaker routes requests to the sequential fallback — the response is
// flagged degraded and is bit- and checksum-identical to the healthy
// path's output (satellite: multiset checksum via internal/verify).
func TestBreakerOpenDegradedEquality(t *testing.T) {
	s, err := New(Config{
		Engine:   persistentCrash(),
		MaxBatch: 1,
		Retries:  -1,
		Degraded: true,
		Breaker: resilience.BreakerConfig{
			Window: 4, MinSamples: 2, FailureRate: 0.5, Cooldown: time.Hour,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	keys := randKeys(rand.New(rand.NewSource(21)), 777, 1<<31)
	// The first two requests trip the breaker but are themselves served
	// degraded (retries exhausted immediately with Retries: -1).
	for i := 0; i < 2; i++ {
		if _, err := s.Sort(context.Background(), keys); err != nil {
			t.Fatalf("request %d not healed by degraded fallback: %v", i, err)
		}
	}
	sorted, degraded, err := s.SortDegradable(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	if !degraded {
		t.Fatal("breaker-open request must be flagged degraded")
	}
	want := sortedRef(keys)
	for i := range want {
		if sorted[i] != want[i] {
			t.Fatalf("degraded output wrong at %d: %d != %d", i, sorted[i], want[i])
		}
	}
	if verify.Sum(sorted) != verify.Sum(keys) {
		t.Fatal("degraded output is not a permutation of the input (checksum mismatch)")
	}
	if got := s.Metrics().DegradedCount(); got != 3 {
		t.Errorf("degraded count = %v, want 3", got)
	}
}

// TestRetriesExhaustedDegraded: with the breaker disabled, a failure
// that survives the whole retry budget still reaches the caller as a
// correct degraded response, and the retries are counted.
func TestRetriesExhaustedDegraded(t *testing.T) {
	s, err := New(Config{
		Engine:         persistentCrash(),
		MaxBatch:       1,
		Retries:        1,
		RetryBackoff:   time.Microsecond,
		DisableBreaker: true,
		Degraded:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	keys := randKeys(rand.New(rand.NewSource(22)), 512, 1<<31)
	sorted, degraded, err := s.SortDegradable(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	if !degraded {
		t.Fatal("retries-exhausted request must be flagged degraded")
	}
	if verify.Sum(sorted) != verify.Sum(keys) {
		t.Fatal("degraded output is not a permutation of the input")
	}
	if got := s.Metrics().RetryCount(); got != 1 {
		t.Errorf("retries = %v, want 1", got)
	}
}

// TestQuarantineNotOnCancel is the satellite edge case: a run aborted
// by the caller's deadline says nothing about engine health — the
// engine must be recycled, not quarantined, and the failure must not
// count against the breaker.
func TestQuarantineNotOnCancel(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{
		Kind: fault.Delay, Proc: 1, Round: 0, Delay: 2 * time.Second,
	})
	s, err := New(Config{
		Engine: parbitonic.Config{
			Processors:  2,
			Backend:     parbitonic.Native,
			WrapCharger: inj.Wrap,
		},
		MaxBatch: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = s.Sort(ctx, []uint32{2, 1, 4, 3})
	if !errors.Is(err, spmd.ErrDeadline) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want a deadline abort, got %v", err)
	}
	// The aborted run's engine is returned asynchronously to the
	// caller's deadline; poll briefly for the Put.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ps := s.Pool().Stats()
		if ps.Quarantined != 0 {
			t.Fatalf("deadline abort quarantined the engine: %+v", ps)
		}
		if ps.Idle == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine never recycled after deadline abort: %+v", ps)
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.breaker.State(); st != resilience.Closed {
		t.Errorf("breaker = %v after a caller abort, want closed", st)
	}
}

// TestChaosSoakZeroClientErrors is the acceptance soak in miniature:
// a live HTTP server under sustained chaos injection (crash, delay,
// corrupt — caught by per-run verification) must answer EVERY client
// request 2xx — healthy, retried, or degraded — with every response
// bit-correct against the sequential baseline, and the recovery
// counters must show up in the Prometheus scrape.
func TestChaosSoakZeroClientErrors(t *testing.T) {
	wrap, injected := fault.ChaosWrapper(fault.ChaosConfig{
		P: 4, Every: 3, Seed: 32, Rounds: 4,
	})
	s, err := New(Config{
		Engine: parbitonic.Config{
			Processors:  4,
			Backend:     parbitonic.Native,
			Verify:      true, // corrupt faults must be caught, not served
			WrapCharger: wrap,
		},
		MaxBatch: 4,
		Degraded: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(NewGatewayHandler(gatewayOf(s), nil))
	defer ts.Close()

	soakFor := 1200 * time.Millisecond
	if testing.Short() {
		soakFor = 200 * time.Millisecond
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var requests, degradedSeen int
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			client := ts.Client()
			for end := time.Now().Add(soakFor); time.Now().Before(end); {
				keys := randKeys(rng, 256, 1<<31)
				body, _ := json.Marshal(sortRequest{Keys: keys})
				resp, err := client.Post(ts.URL+"/sort", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d under chaos: %s", c, resp.StatusCode, raw)
					return
				}
				var out sortResponse
				if err := json.Unmarshal(raw, &out); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				want := sortedRef(keys)
				for i := range want {
					if out.Keys[i] != want[i] {
						t.Errorf("client %d: response not bit-correct at %d", c, i)
						return
					}
				}
				mu.Lock()
				requests++
				if out.Degraded {
					degradedSeen++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if requests == 0 {
		t.Fatal("soak sent no requests")
	}
	if injected() == 0 {
		t.Fatal("chaos injected no faults — the soak proved nothing")
	}
	t.Logf("soak: %d requests, %d degraded, %d faults injected",
		requests, degradedSeen, injected())

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"parbitonic_serve_retries_total",
		"parbitonic_serve_degraded_total",
		"parbitonic_serve_breaker_state",
		"parbitonic_serve_quarantined_engines_total",
		"parbitonic_serve_evicted_engines_total",
	} {
		if !bytes.Contains(scrape, []byte(series)) {
			t.Errorf("scrape is missing %s", series)
		}
	}
}
