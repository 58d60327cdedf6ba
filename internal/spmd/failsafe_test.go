package spmd

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// nopCharger is a race-free charger for multi-processor failsafe tests
// (countCharger's plain counters are for the P=1 contract tests only).
type nopCharger struct{}

func (nopCharger) Start(*PC)              {}
func (nopCharger) Compute(*PC, float64)   {}
func (nopCharger) Pack(*PC, int)          {}
func (nopCharger) Unpack(*PC, int)        {}
func (nopCharger) Transfer(*PC, int, int) {}
func (nopCharger) Synced(*PC)             {}

// spin is a body that barriers forever; only an abort can unwind it.
func spin(p *Proc) {
	for {
		p.Barrier()
	}
}

// runWithWatchdog fails the test if RunContext has not returned within
// the bound — the deadlock-freedom assertion behind every abort path.
func runWithWatchdog(t *testing.T, bound time.Duration, e *Engine, ctx context.Context, body func(*Proc)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := e.RunContext(ctx, nil, body)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(bound):
		t.Fatalf("RunContext still blocked after %v", bound)
		return nil
	}
}

func TestRunContextCancel(t *testing.T) {
	e := mustEngine(t, EngineConfig{P: 4, Charge: nopCharger{}})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	err := runWithWatchdog(t, 2*time.Second, e, ctx, spin)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want wrapping ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapping context.Canceled", err)
	}
}

func TestRunContextDeadline(t *testing.T) {
	e := mustEngine(t, EngineConfig{P: 4, Charge: nopCharger{}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := runWithWatchdog(t, 2*time.Second, e, ctx, spin)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want wrapping ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapping context.DeadlineExceeded", err)
	}
}

func TestRunContextPreCanceled(t *testing.T) {
	e := mustEngine(t, EngineConfig{P: 2, Charge: nopCharger{}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, err := e.RunContext(ctx, nil, func(p *Proc) { ran = true })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want wrapping ErrCanceled", err)
	}
	if ran {
		t.Fatal("body ran under an already-canceled context")
	}
}

func TestPanicBecomesError(t *testing.T) {
	e := mustEngine(t, EngineConfig{P: 4, Charge: nopCharger{}})
	err := runWithWatchdog(t, 2*time.Second, e, context.Background(), func(p *Proc) {
		if p.ID == 1 {
			panic("kaboom")
		}
		spin(p)
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Proc != 1 || pe.Value != "kaboom" {
		t.Fatalf("PanicError = {Proc:%d Value:%v}, want {1 kaboom}", pe.Proc, pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "goroutine") {
		t.Fatalf("PanicError.Stack does not look like a stack trace:\n%s", pe.Stack)
	}
	if !strings.Contains(pe.Error(), "processor 1") {
		t.Fatalf("PanicError.Error() = %q, want it to name the processor", pe.Error())
	}
}

// TestEngineReusableAfterAbort pins the recovery contract: a failed run
// (panic, then cancellation) leaves the engine ready for a clean run.
func TestEngineReusableAfterAbort(t *testing.T) {
	e := mustEngine(t, EngineConfig{P: 4, Charge: nopCharger{}})

	err := runWithWatchdog(t, 2*time.Second, e, context.Background(), func(p *Proc) {
		if p.ID == 0 {
			panic("first failure")
		}
		spin(p)
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("first run: err = %v, want *PanicError", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := runWithWatchdog(t, 2*time.Second, e, ctx, spin); !errors.Is(err, ErrDeadline) {
		t.Fatalf("second run: err = %v, want wrapping ErrDeadline", err)
	}

	// Third run: clean, with real data and exchanges.
	data := [][]uint32{{3, 1}, {4, 2}, {8, 6}, {7, 5}}
	res, err := e.RunContext(context.Background(), data, func(p *Proc) {
		out := make([][]uint32, 4)
		out[(p.ID+1)%4] = p.Data
		in := p.Exchange(out)
		p.Data = in[(p.ID+3)%4]
		p.Barrier()
	})
	if err != nil {
		t.Fatalf("clean run after aborts failed: %v", err)
	}
	if res.Sum.MessagesSent == 0 {
		t.Fatal("clean run recorded no exchanges")
	}
	for i, d := range e.Data() {
		src := (i + 3) % 4
		if len(d) != 2 || d[0] != data[src][0] {
			t.Fatalf("proc %d: data %v, want the rotation from proc %d", i, d, src)
		}
	}
}

// TestAbortUnblocksExchange checks the abort path releases processors
// blocked inside Exchange (not just plain Barrier).
func TestAbortUnblocksExchange(t *testing.T) {
	e := mustEngine(t, EngineConfig{P: 2, Charge: nopCharger{}})
	err := runWithWatchdog(t, 2*time.Second, e, context.Background(), func(p *Proc) {
		if p.ID == 1 {
			panic("peer died")
		}
		for {
			p.Exchange(make([][]uint32, 2))
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Proc != 1 {
		t.Fatalf("err = %v, want *PanicError from proc 1", err)
	}
}

func TestCtxErrorMapping(t *testing.T) {
	if err := ctxError(context.DeadlineExceeded); !errors.Is(err, ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ctxError(DeadlineExceeded) = %v", err)
	}
	if err := ctxError(context.Canceled); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("ctxError(Canceled) = %v", err)
	}
}

// TestNoStaleOutsAfterAbort pins the scratch-recovery contract behind
// engine pooling: a run that dies between pack (Outbox entries set)
// and its Exchange must not leak those out-slices into the NEXT
// run's exchange as phantom messages. Regression test for a bug found
// by chaos-testing pooled engines: a crash fault at remap round >= 1
// poisoned every later run on the engine with "lost keys across a
// remap".
func TestNoStaleOutsAfterAbort(t *testing.T) {
	e := mustEngine(t, EngineConfig{P: 2, Charge: nopCharger{}})

	// Run 1: both processors stage outgoing messages in the pooled
	// Outbox the way pack does, then die before exchanging.
	err := runWithWatchdog(t, 2*time.Second, e, context.Background(), func(p *Proc) {
		out := p.Outbox()
		out[1-p.ID] = []uint32{0xBAD, 0xBAD}
		panic("mid-pack death")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("first run: err = %v, want *PanicError", err)
	}

	// Run 2: a clean exchange where nobody sends anything. Any stale
	// scratch entry from run 1 would surface as a phantom delivery.
	_, err = e.RunContext(context.Background(), nil, func(p *Proc) {
		in := p.Exchange(p.Outbox())
		for src, msg := range in {
			if src != p.ID && len(msg) > 0 {
				panic("phantom message from an aborted run's scratch")
			}
		}
	})
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
}
