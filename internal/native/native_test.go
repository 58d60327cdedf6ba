package native

import (
	"strings"
	"testing"

	"parbitonic/internal/obs"
	"parbitonic/internal/spmd"
)

func mustNew(t testing.TB, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func mustRun(t testing.TB, e *Engine, data [][]uint32, body func(*spmd.Proc)) spmd.Result {
	t.Helper()
	res, err := e.Run(data, body)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestRunMeasuresWallTime checks the wall-clock accounting shape: the
// makespan covers the run, per-phase stats are non-negative, and busy
// time never exceeds the makespan.
func TestRunMeasuresWallTime(t *testing.T) {
	e := mustNew(t, Config{P: 4})
	data := make([][]uint32, 4)
	for i := range data {
		data[i] = make([]uint32, 1<<12)
		for j := range data[i] {
			data[i][j] = uint32((i*31 + j*7) % 997)
		}
	}
	res := mustRun(t, e, data, func(p *spmd.Proc) {
		s := uint32(0)
		for _, v := range p.Data {
			s += v
		}
		p.Data[0] = s
		p.ChargeCompute(0) // argument ignored; wall time is measured
		p.Barrier()
	})
	if res.Time <= 0 {
		t.Fatalf("wall makespan %v, want > 0", res.Time)
	}
	for i, st := range res.PerProc {
		if st.ComputeTime < 0 || st.PackTime < 0 || st.TransferTime < 0 || st.UnpackTime < 0 {
			t.Fatalf("proc %d: negative phase time: %+v", i, st)
		}
		busy := st.ComputeTime + st.PackTime + st.TransferTime + st.UnpackTime
		if busy > res.Time*1.0001 {
			t.Fatalf("proc %d: busy %v exceeds makespan %v", i, busy, res.Time)
		}
	}
}

// TestExchangeIsZeroCopy verifies receivers see the sender's backing
// array itself, not a copy — the handoff the package documents.
func TestExchangeIsZeroCopy(t *testing.T) {
	e := mustNew(t, Config{P: 2})
	payload := []uint32{1, 2, 3}
	mustRun(t, e, nil, func(p *spmd.Proc) {
		out := make([][]uint32, 2)
		if p.ID == 0 {
			out[1] = payload
		}
		in := p.Exchange(out)
		if p.ID == 1 {
			if len(in[0]) != 3 || &in[0][0] != &payload[0] {
				t.Error("native: exchange copied the payload")
			}
		}
	})
}

// TestChargeHelpersMeasure checks that the model-charging helpers used
// by the algorithm bodies attribute elapsed wall time to the right
// phase under the native charger, and that barriers reset the lap so
// waits are not double-counted as compute.
func TestChargeHelpersMeasure(t *testing.T) {
	e := mustNew(t, Config{P: 2})
	res := mustRun(t, e, nil, func(p *spmd.Proc) {
		x := 0
		for i := 0; i < 1<<16; i++ {
			x += i
		}
		_ = x
		p.ChargeMerge(1 << 16)
		p.Barrier()
	})
	if res.Sum.ComputeTime <= 0 {
		t.Fatalf("ComputeTime %v, want > 0 after ChargeMerge", res.Sum.ComputeTime)
	}
	if res.Sum.PackTime != 0 || res.Sum.UnpackTime != 0 {
		t.Fatalf("unexpected pack/unpack time in compute-only run: %+v", res.Sum)
	}
}

// TestTraceRecordsSpans checks the traced timeline includes the
// measured phases.
func TestTraceRecordsSpans(t *testing.T) {
	rec := obs.NewChromeTrace()
	e := mustNew(t, Config{P: 2, Sink: rec})
	data := [][]uint32{{4, 3, 2, 1}, {8, 7, 6, 5}}
	mustRun(t, e, data, func(p *spmd.Proc) {
		p.ChargeCompute(0)
		p.Barrier()
	})
	tl := rec.Timeline(40)
	if !strings.Contains(tl, "proc") || !strings.Contains(tl, "C") {
		t.Fatalf("traced native run produced no compute spans:\n%s", tl)
	}
}

// TestBackendInterface pins that *Engine satisfies spmd.Backend.
func TestBackendInterface(t *testing.T) {
	var b spmd.Backend = mustNew(t, Config{P: 1})
	if b.P() != 1 {
		t.Fatalf("P() = %d, want 1", b.P())
	}
}

// TestBadPErrors mirrors the simulator's constructor contract: an
// invalid processor count is a returned error, not a panic.
func TestBadPErrors(t *testing.T) {
	if _, err := New(Config{P: 3}); err == nil {
		t.Fatal("New(P=3) returned nil error")
	}
}
