package serve

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"parbitonic/internal/obs"
	"parbitonic/internal/spmd"
	"parbitonic/internal/verify"
)

// -update-prom-golden regenerates testdata/metrics.golden.prom from the
// current implementation.
var updatePromGolden = flag.Bool("update-prom-golden", false, "rewrite testdata/metrics.golden.prom")

// fixedPool is a poolStatser with constant counters.
type fixedPool PoolStats

func (p fixedPool) Stats() PoolStats { return PoolStats(p) }

// TestPromExpositionGolden pins the byte-exact /metrics exposition of
// two element servers plus the run sink, in the order the gateway
// handler writes them: the first server with HELP/TYPE headers, the
// second without, then obs.Metrics. Runtime health is left out because
// its values change from scrape to scrape.
func TestPromExpositionGolden(t *testing.T) {
	u32 := newMetrics("u32", func() int { return 3 },
		fixedPool{Gets: 9, Hits: 7, Idle: 2, Quarantined: 1, Evicted: 1},
		obs.SLOConfig{Threshold: 10 * time.Millisecond, Target: 0.9})
	u32.breakerState = func() int { return 2 }
	for i, err := range []error{
		nil, nil, nil, ErrOverloaded, ErrBreakerOpen, spmd.ErrCanceled,
		context.DeadlineExceeded, &verify.Error{Invariant: "multiset", Proc: 1}, errors.New("boom"),
	} {
		u32.observeRequest(time.Duration(i+1)*700*time.Microsecond, err)
	}
	u32.observeRequest(20*time.Second, nil) // beyond every bound
	for _, size := range []int{1, 1, 3, 8, 100} {
		u32.observeBatch(size)
	}
	u32.retry()
	u32.degrade()
	u32.planChoose("smart-bitonic", 4)
	u32.planChoose("smart-bitonic", 2)
	u32.planChoose("cyclic-blocked", 4)
	for _, r := range []float64{0.5, 0.95, 1.2, 3, 9} {
		u32.planObserve(r)
	}
	for i := 0; i < 6; i++ {
		var b obs.StageBreakdown
		for st := range b {
			b[st] = time.Duration(i*(st+1)) * 250 * time.Microsecond
		}
		u32.stages.Observe(b, time.Duration(i+1)*4*time.Millisecond, i%2, i != 5)
	}

	kv := newMetrics("kv64", func() int { return 0 }, fixedPool{}, obs.SLOConfig{})
	kv.observeRequest(2*time.Millisecond, nil)
	kv.observeBatch(1)
	kv.stages.Observe(obs.StageBreakdown{time.Millisecond, 0, 3 * time.Millisecond, 0, 50 * time.Microsecond},
		5*time.Millisecond, 0, true)

	run := obs.NewMetrics()
	run.RunStart(obs.RunMeta{P: 2, Keys: 1 << 10})
	run.FlushSpans(0, []obs.Span{
		{Phase: obs.PhaseCompute, Start: 0, End: 120},
		{Phase: obs.PhasePack, Start: 120, End: 125},
		{Phase: obs.PhaseTransfer, Start: 125, End: 2125},
		{Phase: obs.PhaseUnpack, Start: 2125, End: 2125.5},
		{Phase: obs.PhaseWait, Start: 2125.5, End: 40000},
		{Phase: obs.PhaseAbort, Start: 7, End: 7},
		{Proc: -1, Phase: obs.PhaseDegraded, Start: 0, End: 3e7},
	})
	run.Emit(obs.Event{Kind: obs.EventFault})
	run.Emit(obs.Event{Kind: "custom-kind"})
	run.RunEnd(obs.RunSummary{Keys: 1 << 10, Remaps: 4, Volume: 512, Messages: 4, Makespan: 40000, WallSeconds: 0.04})
	run.RunEnd(obs.RunSummary{Err: "boom"})

	var buf bytes.Buffer
	for i, m := range []*Metrics{u32, kv} {
		if err := m.writeProm(&buf, i == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "metrics.golden.prom")
	if *updatePromGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got, wantLines := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(wantLines); i++ {
			if !bytes.Equal(got[i], wantLines[i]) {
				t.Fatalf("exposition differs at line %d:\n got: %s\nwant: %s", i+1, got[i], wantLines[i])
			}
		}
		t.Fatalf("exposition length differs: got %d lines, want %d", len(got), len(wantLines))
	}
}
