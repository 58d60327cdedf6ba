package spmd

import (
	"strings"
	"testing"

	"parbitonic/internal/addr"
)

// countCharger counts hook invocations — a minimal third backend that
// pins the Charger contract the simulator and native backends rely on.
type countCharger struct {
	start, compute, pack, unpack, transfer, synced int
}

func (c *countCharger) Start(*PC)              { c.start++ }
func (c *countCharger) Compute(*PC, float64)   { c.compute++ }
func (c *countCharger) Pack(*PC, int)          { c.pack++ }
func (c *countCharger) Unpack(*PC, int)        { c.unpack++ }
func (c *countCharger) Transfer(*PC, int, int) { c.transfer++ }
func (c *countCharger) Synced(*PC)             { c.synced++ }

func mustEngine(t testing.TB, cfg EngineConfig) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e
}

func TestChargerHooksFire(t *testing.T) {
	ch := &countCharger{}
	e := mustEngine(t, EngineConfig{P: 1, Long: true, Charge: ch})
	if _, err := e.Run(nil, func(p *Proc) {
		p.ChargeCompute(1)
		p.Barrier()
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ch.start != 1 || ch.compute != 1 || ch.synced != 1 {
		t.Fatalf("hook counts start=%d compute=%d synced=%d, want 1 each", ch.start, ch.compute, ch.synced)
	}
}

// barrierCounter counts each processor's barrier releases; every
// goroutine touches only its own slot.
type barrierCounter struct{ synced []int }

func (c *barrierCounter) Start(*PC)              {}
func (c *barrierCounter) Compute(*PC, float64)   {}
func (c *barrierCounter) Pack(*PC, int)          {}
func (c *barrierCounter) Unpack(*PC, int)        {}
func (c *barrierCounter) Transfer(*PC, int, int) {}
func (c *barrierCounter) Synced(p *PC)           { c.synced[p.ID]++ }

// TestRemapBarriers pins RemapBarriers, the count the native planner
// prices a remap at: the gather, a bare exchange and an in-place remap
// (PublishInPlace) each cross exactly that many barriers on every
// processor.
func TestRemapBarriers(t *testing.T) {
	const p, lgN = 2, 4
	ch := &barrierCounter{synced: make([]int, p)}
	e := mustEngine(t, EngineConfig{P: p, Long: true, Charge: ch})
	plan := addr.NewRemapPlan(addr.Blocked(lgN, 1), addr.Cyclic(lgN, 1))
	for _, tc := range []struct {
		name string
		body func(pr *Proc)
	}{
		{"Remap", func(pr *Proc) { pr.Remap(plan, false, make([]uint32, len(pr.Data))) }},
		{"Exchange", func(pr *Proc) { pr.Exchange(make([][]uint32, p)) }},
		{"PublishInPlace", func(pr *Proc) { pr.PublishInPlace(plan, pr.Data) }},
	} {
		clear(ch.synced)
		data := make([][]uint32, p)
		for i := range data {
			data[i] = make([]uint32, 1<<lgN/p)
		}
		if _, err := e.Run(data, tc.body); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for id, n := range ch.synced {
			if n != RemapBarriers {
				t.Errorf("%s: processor %d crossed %d barriers, want RemapBarriers = %d", tc.name, id, n, RemapBarriers)
			}
		}
	}
}

func TestNewEngineValidation(t *testing.T) {
	for _, p := range []int{0, 3, -4} {
		_, err := NewEngine(EngineConfig{P: p, Charge: &countCharger{}})
		if err == nil || !strings.Contains(err.Error(), "power of two") {
			t.Fatalf("P=%d: expected power-of-two error, got %v", p, err)
		}
	}
	if _, err := NewEngine(EngineConfig{P: 2}); err == nil || !strings.Contains(err.Error(), "Charge") {
		t.Fatalf("nil Charge: expected Charge error, got %v", err)
	}
}
